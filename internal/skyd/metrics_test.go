package skyd

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"skyfaas/internal/metrics"
	"skyfaas/internal/sim"
)

// newMetricsServer is newTestServer with an isolated registry, so
// assertions cannot see series written by other tests sharing the
// process-default registry; a zero speedup is newServer's default.
func newMetricsServer(t *testing.T, speedup float64) (*Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	return newServer(t, 9, slowFast, reg, Config{Speedup: speedup}), reg
}

// TestMetricsExposition drives traffic through all three instrumented
// layers and checks one scrape sees a router counter, a cloudsim counter,
// and a skyd latency histogram — the PR's acceptance criterion.
func TestMetricsExposition(t *testing.T) {
	s, _ := newMetricsServer(t, 0)
	for _, az := range []string{"t1-slow", "t1-fast"} {
		res, body := do(t, s, "POST", "/v1/characterize", map[string]any{"az": az, "polls": 3})
		wantOK(t, res, body, nil)
	}
	if res, body := do(t, s, "POST", "/v1/profile", map[string]any{
		"workload": "math_service", "zones": []string{"t1-slow", "t1-fast"}, "runs": 200,
	}); res.StatusCode != http.StatusOK {
		t.Fatalf("profile: %d %s", res.StatusCode, body)
	}
	if res, body := do(t, s, "POST", "/v1/burst", map[string]any{
		"strategy": "hybrid", "workload": "math_service", "n": 50,
		"candidates": []string{"t1-slow", "t1-fast"},
	}); res.StatusCode != http.StatusOK {
		t.Fatalf("burst: %d %s", res.StatusCode, body)
	}

	res, body := do(t, s, "GET", "/metrics", nil)
	wantOK(t, res, body, nil)
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		`sky_router_bursts_total{strategy="hybrid"} 1`,
		`sky_cloudsim_invocations_total{az="`,
		`sky_skyd_http_request_ms_bucket{path="/v1/burst",le="+Inf"} 1`,
		`sky_skyd_http_requests_total{code="200",path="/v1/burst"} 1`,
		"# TYPE sky_cloudsim_billed_ms histogram",
		"# TYPE sky_skyd_cmd_queue_depth gauge",
		"# TYPE sky_skyd_paced_lag_ms gauge",
		"# TYPE sky_skyd_effective_speedup gauge",
		"# TYPE sky_skyd_sim_pending gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", out)
	}
}

func TestMetricsJSON(t *testing.T) {
	s, _ := newMetricsServer(t, 0)
	res, body := do(t, s, "GET", "/v1/zones", nil)
	wantOK(t, res, body, nil)
	res, body = do(t, s, "GET", "/metrics.json", nil)
	var snap metrics.Snapshot
	wantOK(t, res, body, &snap)
	found := false
	for _, fam := range snap.Metrics {
		if fam.Name == "sky_skyd_http_requests_total" {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot missing request counter: %s", body)
	}
}

// TestHealthzLifecycle is the PR's health acceptance criterion: 200 while
// the loop is live, non-200 after Close.
func TestHealthzLifecycle(t *testing.T) {
	s, _ := newMetricsServer(t, 0)
	res, body := do(t, s, "GET", "/healthz", nil)
	var health struct {
		Status      string    `json:"status"`
		VirtualTime time.Time `json:"virtualTime"`
	}
	wantOK(t, res, body, &health)
	if health.Status != "ok" || health.VirtualTime.IsZero() {
		t.Fatalf("health = %s", body)
	}

	s.Close()
	res, body = do(t, s, "GET", "/healthz", nil)
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed /healthz = %d: %s", res.StatusCode, body)
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "down" {
		t.Fatalf("closed health = %s", body)
	}
}

// TestQueueDepthGaugeSettles checks the enqueue/dequeue accounting returns
// to zero once in-flight commands drain.
func TestQueueDepthGaugeSettles(t *testing.T) {
	s, reg := newMetricsServer(t, 0)
	for i := 0; i < 5; i++ {
		res, body := do(t, s, "GET", "/v1/healthz", nil)
		wantOK(t, res, body, nil)
	}
	depth := reg.Gauge("sky_skyd_cmd_queue_depth", "").Value()
	if depth != 0 {
		t.Fatalf("queue depth after quiescence = %v, want 0", depth)
	}
}

// TestQueueDepthGaugeCountsWaiting holds the simulation goroutine on a
// command that blocks, queues two more behind it, and reads the depth
// gauge back by name: it must count the two waiting, then settle to zero
// once the loop takes them.
func TestQueueDepthGaugeCountsWaiting(t *testing.T) {
	s, reg := newMetricsServer(t, 0)
	depth := func() float64 { return reg.Gauge("sky_skyd_cmd_queue_depth", "").Value() }
	held, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 3)
	go func() {
		done <- s.Exec(func(*sim.Proc) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	for i := 0; i < 2; i++ {
		go func() { done <- s.Exec(func(*sim.Proc) error { return nil }) }()
	}
	deadline := time.Now().Add(2 * time.Second)
	for depth() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	waiting := depth()
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if waiting != 2 {
		t.Fatalf("sky_skyd_cmd_queue_depth behind a held loop = %v, want 2", waiting)
	}
	if d := depth(); d != 0 {
		t.Fatalf("sky_skyd_cmd_queue_depth after the loop took them = %v, want 0", d)
	}
}

// TestPacingGauges reads the paced loop's self-report off an idle server:
// between two commands 20 ms apart nothing is due, so virtual time must
// have advanced at the configured speedup, the loop must not be late, and
// the queue it waited on must hold the cloud's pre-scheduled drift
// timeline and nothing else.
func TestPacingGauges(t *testing.T) {
	s, reg := newMetricsServer(t, 1000)
	// A command's own process has started by the time it runs, so what it
	// sees queued is the timeline.
	var timeline int
	if err := s.Exec(func(p *sim.Proc) error {
		timeline = p.Env().Pending()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if timeline == 0 {
		t.Fatal("an idle server's queue is empty; the drift timeline should be queued")
	}
	for i := 0; i < 2; i++ {
		res, body := do(t, s, "GET", "/v1/healthz", nil)
		wantOK(t, res, body, nil)
		time.Sleep(20 * time.Millisecond)
	}
	res, body := do(t, s, "GET", "/v1/healthz", nil)
	wantOK(t, res, body, nil)
	if eff := reg.Gauge("sky_skyd_effective_speedup", "").Value(); eff < 500 || eff > 1100 {
		t.Errorf("effective speedup on an idle server = %.1f, want within [500, 1100] of the configured 1000", eff)
	}
	if lag := reg.Gauge("sky_skyd_paced_lag_ms", "").Value(); lag < 0 || lag > 50 {
		t.Errorf("paced lag on an idle server = %.3f ms, want near 0", lag)
	}
	if pending := reg.Gauge("sky_skyd_sim_pending", "").Value(); pending != float64(timeline) {
		t.Errorf("sim pending on an idle server = %v, want the drift timeline's %d", pending, timeline)
	}
}
