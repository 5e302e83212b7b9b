package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	_ = w.Close()
	os.Stdout = old
	buf := new(strings.Builder)
	tmp := make([]byte, 4096)
	for {
		n, rerr := r.Read(tmp)
		buf.Write(tmp[:n])
		if rerr != nil {
			break
		}
	}
	return buf.String(), runErr
}

func TestRouteComparisonTable(t *testing.T) {
	out, err := capture(t, []string{
		"-workload", "sha1_hash", "-n", "40",
		"-profile-runs", "150", "-refresh-polls", "2",
		"-zones", "us-west-1b,sa-east-1a",
		"-client", "seattle",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"baseline", "regional", "retry-slow", "focus-fastest", "hybrid",
		"latency-bound+hybrid", "cost-aware", "sampling spend",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// fakeSkyd answers the three /v1 calls remote mode makes, recording the
// Authorization header, the zones it characterized and the burst
// strategies it saw.
type fakeSkyd struct {
	mu         sync.Mutex
	auth       map[string]bool
	zones      []string
	strategies []string
}

func (f *fakeSkyd) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.auth[r.Header.Get("Authorization")] = true
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	switch r.URL.Path {
	case "/v1/characterize":
		var body struct {
			AZ string `json:"az"`
		}
		_ = json.NewDecoder(r.Body).Decode(&body)
		f.mu.Lock()
		f.zones = append(f.zones, body.AZ)
		f.mu.Unlock()
		_, _ = w.Write([]byte(`{"az":"t1-a","costUSD":0.01,"dist":{"Xeon-2.5":0.6,"EPYC-2.0":0.4}}`))
	case "/v1/profile":
		_, _ = w.Write([]byte(`{"workload":"zipper","costUSD":0.25}`))
	case "/v1/burst":
		var body struct {
			Strategy string `json:"strategy"`
		}
		_ = json.NewDecoder(r.Body).Decode(&body)
		f.mu.Lock()
		f.strategies = append(f.strategies, body.Strategy)
		f.mu.Unlock()
		_, _ = w.Write([]byte(`{"az":"t1-a","costUSD":0.5,"meanRunMS":120,"retryFrac":0.1,"elapsedMS":2500}`))
	default:
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write([]byte(`{"error":{"code":"http_error","message":"no such endpoint"}}`))
	}
}

func TestRemoteMode(t *testing.T) {
	fake := &fakeSkyd{auth: map[string]bool{}}
	srv := httptest.NewServer(fake)
	defer srv.Close()

	out, err := capture(t, []string{
		"-url", srv.URL, "-key", "sk-test",
		"-workload", "zipper", "-n", "10",
		"-zones", " t1-a,, t1-b ,", // blank entries are dropped
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"baseline", "hybrid", "sampling spend", srv.URL} {
		if !strings.Contains(out, want) {
			t.Errorf("remote output missing %q:\n%s", want, out)
		}
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	if !fake.auth["Bearer sk-test"] || len(fake.auth) != 1 {
		t.Errorf("auth headers seen = %v, want only Bearer sk-test", fake.auth)
	}
	if want := []string{"t1-a", "t1-b"}; !reflect.DeepEqual(fake.zones, want) {
		t.Errorf("characterized zones = %q, want %q", fake.zones, want)
	}
	wantStrats := []string{"baseline", "regional", "retry-slow", "focus-fastest", "hybrid"}
	if !reflect.DeepEqual(fake.strategies, wantStrats) {
		t.Errorf("burst strategies = %v, want %v", fake.strategies, wantStrats)
	}
}

// TestRemoteModeSurfacesEnvelope: a typed server error (here an auth
// failure) must reach the user as its code and message, not a JSON blob.
func TestRemoteModeSurfacesEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnauthorized)
		_, _ = w.Write([]byte(`{"error":{"code":"missing_key","message":"authentication required"}}`))
	}))
	defer srv.Close()
	_, err := capture(t, []string{"-url", srv.URL, "-workload", "zipper"})
	if err == nil || !strings.Contains(err.Error(), "missing_key") {
		t.Fatalf("err = %v, want missing_key surfaced", err)
	}
}

func TestValidation(t *testing.T) {
	if err := run([]string{"-workload", "quantum_sort"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-zones", "atlantis-1a"}); err == nil {
		t.Error("unknown zone accepted")
	}
	if err := run([]string{"-workload", "zipper", "-client", "gotham"}); err == nil {
		t.Error("unknown city accepted")
	}
	if err := run([]string{"-zorp"}); err == nil {
		t.Error("bad flag accepted")
	}
	for _, zones := range []string{"", ",", " , ,"} {
		if err := run([]string{"-zones", zones}); err == nil || !strings.Contains(err.Error(), "no zones given") {
			t.Errorf("-zones %q: err = %v, want no zones given", zones, err)
		}
	}
	// A size the run cannot use is rejected before any world is built, by
	// the flag that names it.
	badSizes := [][]string{
		{"-n", "0"}, {"-n", "-5"},
		{"-refresh-polls", "0"}, {"-refresh-polls", "-1"},
		{"-profile-runs", "-3"},
	}
	for _, args := range badSizes {
		if err := run(args); err == nil || !strings.HasPrefix(err.Error(), args[0]+" "+args[1]+":") {
			t.Errorf("%v: err = %v, want it rejected by name", args, err)
		}
	}
	// Remote mode must reject an empty zone list or a size it cannot run
	// before it talks to skyd.
	var requests int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		mu.Unlock()
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	if err := run([]string{"-url", srv.URL, "-zones", ", ,"}); err == nil || !strings.Contains(err.Error(), "no zones given") {
		t.Errorf("remote -zones \", ,\": err = %v, want no zones given", err)
	}
	for _, args := range badSizes {
		if err := run(append([]string{"-url", srv.URL}, args...)); err == nil || !strings.HasPrefix(err.Error(), args[0]+" "+args[1]+":") {
			t.Errorf("remote %v: err = %v, want it rejected by name", args, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if requests != 0 {
		t.Errorf("remote mode made %d requests for inputs it rejects", requests)
	}
}
