package skyd

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/metrics"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
)

// The test worlds: two zones with different CPU mixes, and one uniform zone.
var (
	slowFast = []cloudsim.AZSpec{
		{Name: "t1-slow", PoolFIs: 2048, Mix: map[cpu.Kind]float64{cpu.Xeon25: 0.5, cpu.EPYC: 0.5}},
		{Name: "t1-fast", PoolFIs: 2048, Mix: map[cpu.Kind]float64{cpu.Xeon30: 0.6, cpu.Xeon25: 0.4}},
	}
	oneZone = []cloudsim.AZSpec{{Name: "t1-a", PoolFIs: 2048, Mix: map[cpu.Kind]float64{cpu.Xeon25: 1}}}
)

// newServer serves a tiny world of zones built from seed (small sampler, no
// mesh) at very high pacing, so HTTP tests finish in milliseconds of wall
// time, and closes it with the test. reg is the runtime's registry (nil:
// the process default). cfg supplies everything but the runtime: a zero
// Speedup means 5e6.
func newServer(t testing.TB, seed uint64, zones []cloudsim.AZSpec, reg *metrics.Registry, cfg Config) *Server {
	t.Helper()
	rt, err := core.New(core.Config{
		Seed:    seed,
		Metrics: reg,
		Catalog: []cloudsim.RegionSpec{{
			Provider: cloudsim.AWS, Name: "t1", Loc: geo.Coord{Lat: 40, Lon: -80}, AZs: zones,
		}},
		SamplerCfg: sampler.Config{
			Endpoints: 30, PollSize: 84, Branch: 4,
			InterPollPause: 500 * time.Millisecond,
		},
		SkipMesh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Runtime = rt
	if cfg.Speedup == 0 {
		cfg.Speedup = 5e6
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// newTestServer serves the two-zone world with nothing optional enabled.
func newTestServer(t testing.TB) *Server { return newServer(t, 9, slowFast, nil, Config{}) }

func do(t *testing.T, s *Server, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	return doKey(t, s, method, path, body, "")
}

// doKey is do with an API key attached as a bearer token.
func doKey(t *testing.T, s *Server, method, path string, body any, key string) (*http.Response, []byte) {
	t.Helper()
	var reqBody *bytes.Buffer = bytes.NewBuffer(nil)
	if body != nil {
		if err := json.NewEncoder(reqBody).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, reqBody)
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	res := rec.Result()
	defer res.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// envelope mirrors the documented error body for assertions.
type envelope struct {
	Error struct {
		Code         string          `json:"code"`
		Message      string          `json:"message"`
		RetryAfterMS float64         `json:"retryAfterMS"`
		Detail       json.RawMessage `json:"detail"`
	} `json:"error"`
}

// wantErr asserts the response is status with the typed envelope: the
// expected code, a non-empty message, and — on sheds carrying a retry hint
// — a Retry-After header that agrees with retryAfterMS (whole seconds,
// rounded up). It returns the envelope for detail assertions.
func wantErr(t *testing.T, res *http.Response, body []byte, status int, code string) envelope {
	t.Helper()
	if res.StatusCode != status {
		t.Fatalf("status %d, want %d: %s", res.StatusCode, status, body)
	}
	env := checkEnvelope(t, res, body)
	if env.Error.Code != code {
		t.Fatalf("error code %q, want %q: %s", env.Error.Code, code, body)
	}
	return env
}

// wantOK asserts the response is a 200 and decodes its JSON body into v,
// unless v is nil.
func wantOK(t *testing.T, res *http.Response, body []byte, v any) {
	t.Helper()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", res.StatusCode, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%v: %s", err, body)
		}
	}
}

// checkEnvelope asserts body is the error envelope with a non-empty code
// and message, and that a retry hint agrees with the Retry-After header.
func checkEnvelope(t *testing.T, res *http.Response, body []byte) envelope {
	t.Helper()
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an envelope: %v: %s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("empty error code or message: %s", body)
	}
	header := res.Header.Get("Retry-After")
	if env.Error.RetryAfterMS > 0 {
		if header == "" {
			t.Fatalf("retryAfterMS %v without Retry-After header", env.Error.RetryAfterMS)
		}
		secs, err := strconv.Atoi(header)
		if err != nil {
			t.Fatalf("Retry-After %q not whole seconds", header)
		}
		want := int(math.Ceil(env.Error.RetryAfterMS / 1000))
		if want < 1 {
			want = 1
		}
		if secs != want {
			t.Fatalf("Retry-After %ds disagrees with retryAfterMS %v", secs, env.Error.RetryAfterMS)
		}
	} else if header != "" {
		t.Fatalf("Retry-After %q on a response without a retry hint", header)
	}
	return env
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t)
	res, body := do(t, s, "GET", "/v1/healthz", nil)
	var out struct {
		Status      string    `json:"status"`
		VirtualTime time.Time `json:"virtualTime"`
	}
	wantOK(t, res, body, &out)
	if out.Status != "ok" || out.VirtualTime.IsZero() {
		t.Fatalf("body = %s", body)
	}
}

func TestZones(t *testing.T) {
	s := newTestServer(t)
	res, body := do(t, s, "GET", "/v1/zones", nil)
	var out struct {
		Zones []struct {
			Name, Region, Provider string
		} `json:"zones"`
	}
	wantOK(t, res, body, &out)
	if len(out.Zones) != 2 || out.Zones[0].Provider != "aws-lambda" {
		t.Fatalf("zones = %+v", out.Zones)
	}
}

func TestCharacterizeFlow(t *testing.T) {
	s := newTestServer(t)
	res, body := do(t, s, "POST", "/v1/characterize", map[string]any{"az": "t1-fast", "polls": 3})
	var ch struct {
		AZ      string             `json:"az"`
		Samples int                `json:"samples"`
		Dist    map[string]float64 `json:"dist"`
	}
	wantOK(t, res, body, &ch)
	if ch.AZ != "t1-fast" || ch.Samples == 0 {
		t.Fatalf("characterization = %+v", ch)
	}
	if ch.Dist["Xeon 3.00GHz"] <= 0 {
		t.Fatalf("dist = %v", ch.Dist)
	}
	// Now listed.
	res, body = do(t, s, "GET", "/v1/characterizations", nil)
	var list struct {
		Characterizations []json.RawMessage `json:"characterizations"`
	}
	wantOK(t, res, body, &list)
	if len(list.Characterizations) != 1 {
		t.Fatalf("listed %d characterizations", len(list.Characterizations))
	}
}

func TestCharacterizeValidation(t *testing.T) {
	s := newTestServer(t)
	// An unknown AZ is the caller's addressing error, not a gateway
	// failure.
	res, body := do(t, s, "POST", "/v1/characterize", map[string]any{"az": "ghost"})
	wantErr(t, res, body, http.StatusNotFound, "unknown_az")

	req := httptest.NewRequest("POST", "/v1/characterize", bytes.NewBufferString("{bad"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	badRes := rec.Result()
	defer badRes.Body.Close()
	wantErr(t, badRes, rec.Body.Bytes(), http.StatusBadRequest, "bad_request")
}

// TestDecodeRejectsTrailingBytes: a request body is exactly one JSON value.
// Anything after it but whitespace is the caller's 400, not silently
// dropped. Accepted bodies name an unknown zone, so getting past decode
// shows as the 404 that follows it.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	s := newTestServer(t)
	for _, c := range []struct {
		body   string
		status int
		code   string
	}{
		{`{"az":"ghost"}`, http.StatusNotFound, "unknown_az"},
		{"{\"az\":\"ghost\"}\n", http.StatusNotFound, "unknown_az"}, // json.Encoder's newline
		{"{\"az\":\"ghost\"} \r\n\t ", http.StatusNotFound, "unknown_az"},
		{`{"az":"ghost"}{"az":"t1-fast"}`, http.StatusBadRequest, "bad_request"},
		{`{"az":"ghost"} {}`, http.StatusBadRequest, "bad_request"},
		{`{"az":"ghost"}x`, http.StatusBadRequest, "bad_request"},
		{`{"az":"ghost"}}`, http.StatusBadRequest, "bad_request"},
		{`{"az":"ghost"}]`, http.StatusBadRequest, "bad_request"},
		{`{"az":"ghost"} 1`, http.StatusBadRequest, "bad_request"},
		{`{"az":"ghost"}"`, http.StatusBadRequest, "bad_request"},
	} {
		t.Run(c.body, func(t *testing.T) {
			req := httptest.NewRequest("POST", "/v1/characterize", bytes.NewBufferString(c.body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			res := rec.Result()
			defer res.Body.Close()
			wantErr(t, res, rec.Body.Bytes(), c.status, c.code)
		})
	}
}

func TestProfileThenPerfThenBurst(t *testing.T) {
	s := newTestServer(t)
	res, body := do(t, s, "POST", "/v1/profile", map[string]any{
		"workload": "math_service", "zones": []string{"t1-slow", "t1-fast"}, "runs": 450,
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d: %s", res.StatusCode, body)
	}

	res, body = do(t, s, "GET", "/v1/perf?workload=math_service", nil)
	var perf struct {
		Kinds []struct {
			CPU     string  `json:"cpu"`
			MeanMS  float64 `json:"meanMS"`
			Samples int     `json:"samples"`
		} `json:"kinds"`
	}
	wantOK(t, res, body, &perf)
	if len(perf.Kinds) < 2 {
		t.Fatalf("perf kinds = %+v", perf.Kinds)
	}
	// Ranked fastest first.
	if perf.Kinds[0].MeanMS > perf.Kinds[1].MeanMS {
		t.Fatalf("perf not ranked: %+v", perf.Kinds)
	}

	// Characterize both zones so the hybrid strategy can decide.
	for _, az := range []string{"t1-slow", "t1-fast"} {
		if res, body := do(t, s, "POST", "/v1/characterize", map[string]any{"az": az, "polls": 3}); res.StatusCode != http.StatusOK {
			t.Fatalf("characterize %s: %d %s", az, res.StatusCode, body)
		}
	}
	res, body = do(t, s, "POST", "/v1/burst", map[string]any{
		"strategy": "hybrid", "workload": "math_service", "n": 100,
		"candidates": []string{"t1-slow", "t1-fast"},
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("burst status %d: %s", res.StatusCode, body)
	}
	var burst struct {
		AZ        string  `json:"az"`
		Completed int     `json:"completed"`
		CostUSD   float64 `json:"costUSD"`
	}
	wantOK(t, res, body, &burst)
	if burst.Completed != 100 || burst.AZ != "t1-fast" || burst.CostUSD <= 0 {
		t.Fatalf("burst = %+v", burst)
	}
}

func TestBurstValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		req    map[string]any
		status int
		code   string
	}{
		{map[string]any{"strategy": "warp", "workload": "zipper"},
			http.StatusBadRequest, "unknown_strategy"},
		{map[string]any{"strategy": "baseline", "workload": "zipper"},
			http.StatusBadRequest, "bad_request"}, // baseline without az
		{map[string]any{"strategy": "hybrid", "workload": "quantum_sort"},
			http.StatusBadRequest, "unknown_workload"},
		{map[string]any{"strategy": "baseline", "az": "ghost", "workload": "zipper"},
			http.StatusNotFound, "unknown_az"},
		{map[string]any{"workload": "zipper", "candidates": []string{"t1-fast", "ghost"}},
			http.StatusNotFound, "unknown_az"},
		// Hybrid with nothing characterized and no candidates has no zone
		// to pick: the caller's to fix, not an upstream failure.
		{map[string]any{"workload": "sha1_hash", "n": 1},
			http.StatusConflict, "no_zone"},
	}
	for _, c := range cases {
		res, body := do(t, s, "POST", "/v1/burst", c.req)
		wantErr(t, res, body, c.status, c.code)
	}
}

// TestRequestCeilings: a count above its ceiling, or a negative one, is the
// caller's 400, answered before the burst slab is sized or the simulation
// goroutine is occupied.
func TestRequestCeilings(t *testing.T) {
	s := newControlServer(t)
	for _, c := range []struct {
		path string
		req  map[string]any
	}{
		{"/v1/burst", map[string]any{"workload": "zipper", "n": maxBurstN + 1}},
		{"/v1/burst", map[string]any{"workload": "zipper", "n": -5}}, // only 0 takes the default
		{"/v1/characterize", map[string]any{"az": "t1-fast", "polls": maxCharacterizePolls + 1}},
		{"/v1/profile", map[string]any{"workload": "math_service", "zones": []string{"t1-fast"}, "runs": maxProfileRuns + 1}},
		{"/v1/refresh", map[string]any{"az": "t1-fast", "polls": maxCharacterizePolls + 1}},
	} {
		res, body := do(t, s, "POST", c.path, c.req)
		wantErr(t, res, body, http.StatusBadRequest, "bad_request")
	}
}

func TestProfileValidation(t *testing.T) {
	s := newTestServer(t)
	res, body := do(t, s, "POST", "/v1/profile", map[string]any{
		"workload": "math_service", "zones": []string{"ghost"},
	})
	wantErr(t, res, body, http.StatusNotFound, "unknown_az")
	res, body = do(t, s, "POST", "/v1/profile", map[string]any{
		"workload": "quantum_sort", "zones": []string{"t1-fast"},
	})
	wantErr(t, res, body, http.StatusBadRequest, "unknown_workload")
	res, body = do(t, s, "POST", "/v1/profile", map[string]any{"workload": "math_service"})
	wantErr(t, res, body, http.StatusBadRequest, "bad_request")
}

func TestPerfValidation(t *testing.T) {
	s := newTestServer(t)
	res, body := do(t, s, "GET", "/v1/perf?workload=quantum_sort", nil)
	wantErr(t, res, body, http.StatusBadRequest, "unknown_workload")
}

func TestClosedServer503(t *testing.T) {
	s := newTestServer(t)
	s.Close()
	res, body := do(t, s, "GET", "/v1/healthz", nil)
	wantErr(t, res, body, http.StatusServiceUnavailable, "unavailable")
}

// TestHealthProbesBounded holds the simulation goroutine on a command that
// blocks, then asks both health routes at once: each must give up after
// healthTimeout and answer 503, where an unbounded probe would wait for
// the loop and run into the client's timeout.
func TestHealthProbesBounded(t *testing.T) {
	s := newTestServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()
	held, release, execErr := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		execErr <- s.Exec(func(*sim.Proc) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	// Let the loop go before the listener's Close and the server's, which
	// wait for their handlers and for the loop.
	defer func() {
		close(release)
		if err := <-execErr; err != nil {
			t.Error(err)
		}
	}()
	client := &http.Client{Timeout: healthTimeout + 2*time.Second}

	type answer struct {
		path   string
		status int
		body   []byte
		took   time.Duration
		err    error
	}
	paths := []string{"/healthz", "/v1/healthz"}
	answers := make(chan answer, len(paths))
	for _, path := range paths {
		go func(path string) {
			a := answer{path: path}
			start := time.Now()
			res, err := client.Get(srv.URL + path)
			if err == nil {
				a.status = res.StatusCode
				buf := new(bytes.Buffer)
				_, err = buf.ReadFrom(res.Body)
				res.Body.Close()
				a.body = buf.Bytes()
			}
			a.took, a.err = time.Since(start), err
			answers <- a
		}(path)
	}
	for range paths {
		a := <-answers
		if a.err != nil {
			t.Errorf("GET %s: %v", a.path, a.err)
			continue
		}
		if a.status != http.StatusServiceUnavailable || a.took > healthTimeout+time.Second {
			t.Errorf("GET %s on a held loop = %d after %v, want 503 within %v: %s",
				a.path, a.status, a.took, healthTimeout+time.Second, a.body)
			continue
		}
		var body struct {
			Status string `json:"status"`
			Error  any    `json:"error"`
		}
		if err := json.Unmarshal(a.body, &body); err != nil {
			t.Errorf("GET %s: %v: %s", a.path, err, a.body)
			continue
		}
		switch a.path {
		case "/healthz":
			if body.Status != "down" || body.Error != errStalled.Error() {
				t.Errorf("GET /healthz on a held loop: %s", a.body)
			}
		case "/v1/healthz":
			if e, _ := body.Error.(map[string]any); e["code"] != "unavailable" {
				t.Errorf("GET /v1/healthz on a held loop: %s", a.body)
			}
		}
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	s := newTestServer(t)
	res, body := do(t, s, "GET", "/v1/workloads", nil)
	var out struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	wantOK(t, res, body, &out)
	if len(out.Workloads) != 12 {
		t.Fatalf("workloads = %d", len(out.Workloads))
	}
}

func TestExecAfterClose(t *testing.T) {
	s := newTestServer(t)
	s.Close()
	if err := s.Exec(func(p *sim.Proc) error { return nil }); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
	// Double close is safe.
	s.Close()
}

func TestConcurrentRequests(t *testing.T) {
	s := newTestServer(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			res, _ := do(t, s, "GET", "/v1/healthz", nil)
			if res.StatusCode != http.StatusOK {
				done <- ErrClosed
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal("concurrent healthz failed")
		}
	}
}
