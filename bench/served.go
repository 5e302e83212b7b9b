package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/core"
	"skyfaas/internal/metrics"
	"skyfaas/internal/skyd"
	"skyfaas/internal/tenant"
)

// The three zones every served burst may use: the paper's region-hopping
// candidates (EX-5's HopZones).
var candidates = []string{"us-west-1a", "us-west-1b", "sa-east-1a"}

// reqIDHeader carries the harness's request number to the handler wrapper,
// which is how a server-side span finds its client-side parent.
const reqIDHeader = "X-Bench-Req"

// worldSeed seeds the simulated cloud behind every served workload. It is
// fixed: which CPUs a zone holds decides which zone the hybrid strategy picks
// and how long a burst takes there (p50 moved 11.3-13.6 ms across world
// seeds), so a world that changed with --seed would make runs with different
// seeds different experiments. --seed generates the traffic; the world is
// part of the system under test.
const worldSeed = 42

// servedSpeedup and servedPumpEvery are the pacing every served workload
// runs at: the defaults skyd ships with, written out so that the workload
// stays what it is if those defaults change, and so that the pacing probe
// divides by the speedup the server really has.
const (
	servedSpeedup   = 1000
	servedPumpEvery = 100 * time.Millisecond
)

// served is an in-process skyd behind a real loopback http.Server, plus the
// client the generator talks to it with.
type served struct {
	srv      *skyd.Server
	rt       *core.Runtime
	reg      *tenant.Registry // nil on the zero-config server
	httpd    *http.Server
	serveErr chan error
	base     string
	client   *http.Client
	adminKey string   // "" on the zero-config server
	keys     []string // the metered tenants' keys, rotated over bursts
	ids      []string // their IDs, for /v1/tenants/{id}/usage
	// handled maps a request number to the [start, end] the handler wrapper
	// saw; only requests that carry reqIDHeader are recorded.
	handled sync.Map
}

// startServed builds the runtime and server the way cmd/skyd does. fullStack
// turns on tenants (bench/tenants.json) and the admission gate; without it
// the server is zero-config. wrap installs the handler-timing wrapper that
// traced runs need.
func startServed(dir string, fullStack, wrap bool) (*served, error) {
	rt, err := core.New(core.Config{Seed: worldSeed, SkipMesh: true, Metrics: metrics.NewRegistry()})
	if err != nil {
		return nil, err
	}
	s := &served{rt: rt}
	cfg := skyd.Config{Runtime: rt, Speedup: servedSpeedup, PumpEvery: servedPumpEvery}
	if fullStack {
		f, err := os.Open(filepath.Join(dir, "tenants.json"))
		if err != nil {
			return nil, err
		}
		accounts, err := tenant.Load(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		s.reg = tenant.NewRegistry(tenant.Config{Metrics: rt.Metrics()})
		now := time.Now()
		for _, t := range accounts {
			if err := s.reg.Create(t, now); err != nil {
				return nil, err
			}
			if t.Admin {
				s.adminKey = t.Keys[0]
			} else {
				s.keys = append(s.keys, t.Keys[0])
				s.ids = append(s.ids, t.ID)
			}
		}
		if s.adminKey == "" || len(s.keys) == 0 {
			return nil, errors.New("tenants.json needs one admin and at least one metered tenant")
		}
		cfg.Tenants = s.reg
		cfg.Admission = &admission.Config{}
	}
	s.srv, err = skyd.New(cfg)
	if err != nil {
		return nil, err
	}
	var handler http.Handler = s.srv
	if wrap {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get(reqIDHeader)
			if id == "" {
				s.srv.ServeHTTP(w, r)
				return
			}
			start := time.Now()
			s.srv.ServeHTTP(w, r)
			if n, err := strconv.Atoi(id); err == nil {
				s.handled.Store(n, [2]time.Time{start, time.Now()})
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.httpd = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.httpd.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        maxWorkers,
			MaxIdleConnsPerHost: maxWorkers,
			DisableCompression:  true,
		},
	}
	return s, nil
}

// close drains the listener first (requests round-trip through the
// simulation, so it must still be running), then stops the simulation, in
// cmd/skyd's order, and waits for both.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.httpd.Shutdown(ctx)
	if serr := <-s.serveErr; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
	return err
}

// call sends one request and reads the whole answer. reqID 0 sends no
// request-number header.
func (s *served) call(method, path, key string, body []byte, reqID int) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	if reqID != 0 {
		req.Header.Set(reqIDHeader, strconv.Itoa(reqID))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// mustOK is call for set-up steps, where anything but 200 ends the run.
func (s *served) mustOK(method, path string, body any) ([]byte, error) {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	status, data, err := s.call(method, path, s.adminKey, raw, 0)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(data))
	}
	return data, nil
}

// virtualNow reads the simulation clock through /v1/healthz.
func (s *served) virtualNow() (time.Time, error) {
	data, err := s.mustOK("GET", "/v1/healthz", nil)
	if err != nil {
		return time.Time{}, err
	}
	var h struct {
		VirtualTime time.Time `json:"virtualTime"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return time.Time{}, err
	}
	return h.VirtualTime, nil
}

// setup does over HTTP what an operator does before routing: characterize
// the candidate zones and profile the workload. It then sends warm, a slice
// of the workload's own traffic, unmeasured and as often as it takes for
// virtual time to pass margin. By then every instance the set-up
// calls created has been reaped, and the keep-alive timers of the workload's
// own first invocations have begun to fire, so the measured window sees the
// steady state and not the five timer-free virtual minutes before it. The
// rule is on virtual time so it stays right when pacing changes.
func (s *served) setup(workload string, margin time.Duration, warm func() error) error {
	for _, az := range candidates {
		if _, err := s.mustOK("POST", "/v1/characterize", map[string]any{"az": az, "polls": 2}); err != nil {
			return err
		}
	}
	if _, err := s.mustOK("POST", "/v1/profile", map[string]any{"workload": workload, "zones": candidates, "runs": 100}); err != nil {
		return err
	}
	setupEnd, err := s.virtualNow()
	if err != nil {
		return err
	}
	for now := setupEnd; now.Sub(setupEnd) < margin; {
		if err := warm(); err != nil {
			return err
		}
		if now, err = s.virtualNow(); err != nil {
			return err
		}
	}
	return nil
}
