package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/metrics"
	"skyfaas/internal/rng"
	"skyfaas/internal/router"
	"skyfaas/internal/sim"
	"skyfaas/internal/tenant"
	"skyfaas/internal/workload"
)

// Request numbers of the probes' spans start here, clear of the numbers the
// traced workload used.
const (
	probeGatewayReq = 1_000_000
	probeBatchReq   = 2_000_000
	probeReplayReq  = 3_000_000
	probeSeqReq     = 4_000_000
	probePassReq    = 5_000_000
)

// burstReq and burstJS mirror skyd's unexported request and response types
// field for field, so that decoding and encoding them here costs what it
// costs there. TestBurstMirrorsMatchTheServer fails when they drift from
// what a real /v1/burst accepts and answers.
type burstReq struct {
	Strategy   string             `json:"strategy"`
	AZ         string             `json:"az"`
	Params     map[string]float64 `json:"params"`
	Workload   string             `json:"workload"`
	N          int                `json:"n"`
	Candidates []string           `json:"candidates"`
}

type burstJS struct {
	Strategy  string         `json:"strategy"`
	Workload  string         `json:"workload"`
	AZ        string         `json:"az"`
	Completed int            `json:"completed"`
	Attempts  int            `json:"attempts"`
	Declined  int            `json:"declined"`
	Failed    int            `json:"failed"`
	RetryFrac float64        `json:"retryFrac"`
	MeanRunMS float64        `json:"meanRunMS"`
	CostUSD   float64        `json:"costUSD"`
	ElapsedMS float64        `json:"elapsedMS"`
	PerCPU    map[string]int `json:"perCPU"`
}

func decodeBurst(body []byte) (burstReq, error) {
	var req burstReq
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 1<<20))
	dec.DisallowUnknownFields()
	return req, dec.Decode(&req)
}

func encodeBurst(res router.BurstResult) error {
	perCPU := make(map[string]int, len(res.PerCPU))
	for k, n := range res.PerCPU {
		perCPU[k.String()] = n
	}
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(burstJS{
		Strategy: res.Strategy, Workload: res.Workload.String(), AZ: res.AZ,
		Completed: res.Completed, Attempts: res.Attempts, Declined: res.Declined, Failed: res.Failed,
		RetryFrac: res.RetryFrac(), MeanRunMS: res.MeanRunMS(), CostUSD: res.CostUSD,
		ElapsedMS: ms(res.Elapsed), PerCPU: perCPU,
	})
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// probeServed brings up the full stack (tenants, admission) behind loopback
// HTTP and measures skyd from both sides: over HTTP with the handler wrapper
// timing the server side, then from inside by replaying bursts through the
// same public calls handleBurst makes, one span each.
func probeServed(cfg runConfig, tr *tracer, l *layers) (err error) {
	s, err := startServed(cfg.dir, true, true)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, s.close()) }()
	warm := func() error { return s.openLoop(gatewayPlan(s, cfg.seed, time.Second, false), nil, 0).firstErr }
	if err := s.setup("sha1_hash", cfg.scale.margin, warm); err != nil {
		return err
	}

	// gateway_mixed's traffic, every burst traced.
	v0, err := s.virtualNow()
	if err != nil {
		return err
	}
	w0, cpu0 := time.Now(), cpuSeconds()
	win := s.openLoop(gatewayPlan(s, cfg.seed, cfg.scale.probeGateway, false), tr, probeGatewayReq)
	cpu1, w1 := cpuSeconds(), time.Now()
	v1, err := s.virtualNow()
	if err != nil {
		return err
	}
	if win.firstErr != nil {
		return fmt.Errorf("probe traffic: %d of %d requests failed: %w", win.failed, win.attempted, win.firstErr)
	}
	if len(win.handlerMS) != len(win.rttMS) {
		return fmt.Errorf("handler wrapper saw %d of %d traced bursts", len(win.handlerMS), len(win.rttMS))
	}
	overhead := make(samples, len(win.rttMS))
	for i := range overhead {
		overhead[i] = win.rttMS[i] - win.handlerMS[i]
	}
	l.pcts("skyd.http_rtt_ms", win.rttMS, 50)
	l.pcts("skyd.handler_ms", win.handlerMS, 50, 99)
	l.pcts("skyd.http_overhead_ms", overhead, 50)
	l.pcts("load.gen_late_ms", win.lateMS, 99)
	l.set("skyd.stall_max_ms", win.burstMS.sorted().max())
	l.set("load.max_inflight", float64(win.maxInflight))
	l.set("skyd.effective_speedup", v1.Sub(v0).Seconds()/w1.Sub(w0).Seconds())
	l.set("skyd.cpu_ms_per_req", (cpu1-cpu0)*1000/float64(win.attempted))

	// What /metrics costs once the registry holds a run's series.
	var scrapes []float64
	var size countingWriter
	for i := 0; i < 20; i++ {
		size.n = 0
		t0 := time.Now()
		if err := s.rt.Metrics().WritePrometheus(&size); err != nil {
			return err
		}
		scrapes = append(scrapes, ms(time.Since(t0)))
	}
	l.set("metrics.scrape_ms", median(scrapes))
	l.set("metrics.scrape_bytes", float64(size.n))

	// An idle server still pumps: the CPU it burns doing nothing.
	cpu0, w0 = cpuSeconds(), time.Now()
	time.Sleep(cfg.scale.idle)
	l.set("skyd.idle_cpu_pct", (cpuSeconds()-cpu0)/time.Since(w0).Seconds()*100)

	if err := replay(s, cfg.scale.replayBursts, tr, l); err != nil {
		return err
	}

	// One cold batch_closed round: the first focus-fastest burst on a zone
	// declines its way onto the fast CPUs (Fig. 10); once those instances
	// are warm the ratio returns to 1, which is where batch_closed runs.
	if _, err := s.mustOK("POST", "/v1/profile", map[string]any{"workload": "zipper", "zones": candidates, "runs": 100}); err != nil {
		return err
	}
	var batch window
	var mu sync.Mutex
	for i, r := range batchRound(rng.New(cfg.seed).Split("bench-probe-batch")) {
		r.key = s.keys[0]
		s.send(r, time.Now(), probeBatchReq+i, tr, &mu, &batch)
	}
	if batch.firstErr != nil {
		return batch.firstErr
	}
	l.set("router.completions_per_attempt", float64(batch.completedInv)/float64(batch.attemptsInv))

	body := burstBody("sha1_hash", 1, "hybrid", "")
	var decErr error
	ns, _ := perOp(cfg.iters(100_000), func() { _, decErr = decodeBurst(body) })
	if decErr != nil {
		return decErr
	}
	l.set("skyd.decode_ns", ns)
	res := router.BurstResult{Strategy: "hybrid", Workload: workload.Sha1Hash, AZ: candidates[0], N: 1, Completed: 1, Attempts: 1}
	ns, _ = perOp(cfg.iters(100_000), func() { decErr = encodeBurst(res) })
	l.set("skyd.encode_ns", ns)
	return decErr
}

// replay sends bursts through the server the way handleBurst does, but from
// here, so that each public call it makes can be timed: one span per call
// under a replay.burst root, in the handler's order (mount's authorize and
// instrumentation included). A layer's self time is its span minus its
// children.
//
// Each replayed burst follows one sent over HTTP, alone, and the medians of
// the replay's self times add up to that request's handler time
// (skyd.handler_seq_ms_p50; smoke_test.go holds them to 10%). They do not
// add up to skyd.handler_ms_p50, which is taken under gateway_mixed's load
// and is about a tenth lower: the paced loop sleeps once per event gap, and
// in a process kept busy by HTTP traffic those sleeps return sooner than in
// a quiet one.
func replay(s *served, bursts int, tr *tracer, l *layers) error {
	gate, reg, reqs := s.rt.Admission(), s.reg, s.rt.Metrics()
	body := burstBody("sha1_hash", 1, "hybrid", "")
	var execMS, pacingMS samples
	var seq window
	var mu sync.Mutex
	for i := 0; i < bursts; i++ {
		id := probeReplayReq + i
		key := s.keys[i%len(s.keys)]
		s.send(request{burst: true, n: 1, key: key, path: "/v1/burst", body: body}, time.Now(), probeSeqReq+i, tr, &mu, &seq)
		if seq.firstErr != nil {
			return seq.firstErr
		}
		var (
			acct   tenant.Tenant
			req    burstReq
			spec   workload.Spec
			strat  router.Strategy
			lease  tenant.Lease
			ticket admission.Ticket
			res    router.BurstResult
			run    [2]time.Time // core.Runtime.Run, timed inside the command
		)
		steps := []struct {
			name string
			fn   func() error
		}{
			{"tenant.resolve", func() error {
				var ok bool
				if acct, ok = reg.Resolve(key); !ok {
					return fmt.Errorf("key %q does not resolve", key)
				}
				return nil
			}},
			{"skyd.decode", func() (err error) {
				if req, err = decodeBurst(body); err != nil {
					return err
				}
				var ok bool
				if spec, ok = workload.ByName(req.Workload); !ok {
					return fmt.Errorf("unknown workload %q", req.Workload)
				}
				return nil
			}},
			{"router.build", func() (err error) {
				strat, err = router.Build(router.StrategySpec{Name: req.Strategy, AZ: req.AZ, Params: req.Params},
					router.WithLocator(router.NewZoneLocator(s.rt.Cloud())),
					router.WithPricer(router.NewZonePricer(s.rt.Cloud())))
				return err
			}},
			{"tenant.acquire", func() (err error) {
				lease, err = reg.Acquire(acct.ID, req.N, time.Now())
				return err
			}},
			{"admission.admit", func() (err error) {
				if ticket, err = gate.Admit(time.Now(), spec.ID, req.N); err != nil {
					return err
				}
				if az, ok := gate.RouteFor(spec.ID, time.Now()); ok {
					strat, err = router.Build(router.StrategySpec{Name: "baseline", AZ: az})
				}
				return err
			}},
			{"skyd.exec", func() error {
				return s.srv.Exec(func(p *sim.Proc) (err error) {
					run[0] = time.Now()
					res, err = s.rt.Run(p, router.BurstSpec{Strategy: strat, Workload: spec.ID, N: req.N, Candidates: req.Candidates})
					run[1] = time.Now()
					return err
				})
			}},
			{"admission.done", func() error {
				gate.Done(ticket, time.Now(), res.MeanRunMS(), res.Completed > 0)
				gate.RememberRoute(spec.ID, res.AZ, time.Now())
				return nil
			}},
			{"tenant.release", func() error {
				reg.Release(lease, time.Now(), res.CostUSD)
				return nil
			}},
			{"skyd.encode", func() error { return encodeBurst(res) }},
			{"metrics.observe", func() error {
				reqs.Counter("sky_skyd_http_requests_total", "requests served, by endpoint and status code",
					metrics.L("path", "/v1/burst"), metrics.L("code", "200")).Inc()
				reqs.Counter("sky_tenant_http_requests_total", "requests served, by tenant and status code",
					metrics.L("tenant", acct.ID), metrics.L("code", "200")).Inc()
				return nil
			}},
		}
		start := time.Now()
		root := tr.add(0, id, "replay.burst", start, start) // closed below
		for _, st := range steps {
			t0 := time.Now()
			err := st.fn()
			t1 := time.Now()
			sp := tr.add(root, id, st.name, t0, t1)
			if err != nil {
				return fmt.Errorf("replay burst %d: %s: %w", i, st.name, err)
			}
			if st.name == "skyd.exec" {
				tr.add(sp, id, "core.run", run[0], run[1])
				execMS = append(execMS, ms(t1.Sub(t0)))
				// What the burst would have taken had the simulation kept
				// to the speedup the server was configured with: the rest
				// is pacing.
				pacingMS = append(pacingMS, ms(t1.Sub(t0))-ms(res.Elapsed)/servedSpeedup)
			}
		}
		tr.close(root, time.Now())
		if res.Completed != req.N {
			return fmt.Errorf("replay burst %d completed %d of %d", i, res.Completed, req.N)
		}
	}
	l.pcts("skyd.handler_seq_ms", seq.handlerMS, 50)
	l.pcts("skyd.exec_run_ms", execMS, 50)
	l.pcts("skyd.pacing_overhead_ms", pacingMS, 50)

	// A command that does nothing: what is left is the wait for the pump.
	var noop samples
	for i := 0; i < bursts; i++ {
		t0 := time.Now()
		if err := s.srv.Exec(func(*sim.Proc) error { return nil }); err != nil {
			return err
		}
		noop = append(noop, ms(time.Since(t0)))
	}
	l.pcts("skyd.exec_noop_ms", noop, 50, 99)
	return nil
}
