package main

import (
	"errors"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/cpu"
	"skyfaas/internal/experiments"
	"skyfaas/internal/faas"
	"skyfaas/internal/mesh"
	"skyfaas/internal/metrics"
	"skyfaas/internal/router"
	"skyfaas/internal/sim"
	"skyfaas/internal/tenant"
	"skyfaas/internal/warmpool"
	"skyfaas/internal/workload"
)

// The layer probes time calls into each package's public functions from
// outside, at fixed iteration counts: a million or more for calls that take
// nanoseconds, so that the clock's own cost is a rounding error (the
// BENCH_*.json figures taken at -benchtime 3x timed the timer). Every traced
// run executes all of them, whatever the workload, so every per-layer metric
// is present in every traced result and means the same thing there.

var epoch = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

// layers collects per-layer values and the sample counts behind percentiles.
type layers struct {
	values map[string]float64
	counts map[string]int
}

func (l *layers) set(name string, v float64) { l.values[name] = v }

// pcts files percentiles of one sample set under name+"_p50" and so on.
func (l *layers) pcts(name string, s samples, qs ...int) {
	s = s.sorted()
	for _, q := range qs {
		key := fmt.Sprintf("%s_p%d", name, q)
		l.values[key] = s.pct(float64(q) / 100)
		l.counts[key] = len(s)
	}
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink any

// perOp runs fn n times and returns nanoseconds and heap allocations per call.
func perOp(n int, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// iters scales a probe's full iteration count down for smoke runs.
func (c runConfig) iters(n int) int {
	if n /= c.scale.iterDiv; n < 1 {
		return 1
	}
	return n
}

func layerProbes(cfg runConfig, tr *tracer, host hostRecord) (map[string]float64, map[string]int, error) {
	l := &layers{values: map[string]float64{"bench.sleep_floor_ms": host.SleepFloorMS}, counts: map[string]int{}}
	for _, probe := range []func(runConfig, *tracer, *layers) error{
		probeSim, probeMesh, probeCore, probeRouter, probeSampler,
		probeGovernors, probeWarmPool, probeServed, probeExperiments,
	} {
		if err := probe(cfg, tr, l); err != nil {
			return nil, nil, err
		}
	}
	return l.values, l.counts, nil
}

// probeSim times the bare event heap (callbacks, no processes) and the
// process hand-off.
func probeSim(cfg runConfig, _ *tracer, l *layers) error {
	const chains = 64
	events := float64(cfg.iters(2_000_000))
	env := sim.NewEnv(epoch)
	for c := 0; c < chains; c++ {
		// Distinct periods, so pushes land all over the heap, not at its end.
		gap := time.Duration(c+1) * time.Microsecond
		left := int(events) / chains
		var step func()
		step = func() {
			if left--; left > 0 {
				env.Schedule(gap, step)
			}
		}
		env.Schedule(gap, step)
	}
	var runErr error
	ns, allocs := perOp(1, func() { runErr = env.Run() })
	if runErr != nil {
		return runErr
	}
	l.set("sim.ns_per_event", ns/events)
	l.set("sim.allocs_per_event", allocs/events)

	// One Sleep is one yield to the scheduler and one wake: two goroutine
	// hand-offs and one event.
	sleeps := cfg.iters(200_000)
	env = sim.NewEnv(epoch)
	env.Go("bench", func(p *sim.Proc) error {
		for i := 0; i < sleeps; i++ {
			p.Sleep(time.Nanosecond)
		}
		return nil
	})
	ns, _ = perOp(1, func() { runErr = env.Run() })
	l.set("sim.proc_switch_ns", ns/float64(sleeps))
	return runErr
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in the collector.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// probeMesh runs EX-9's mesh load (49 zones, 698 deployments, callbacks on
// the bare event heap: no procs, router, sampler or HTTP) once on each
// engine: the single-queue run gives cloudsim's cost per invocation (world
// construction, about 1% of the allocations, is inside the deltas), the pair
// gives the sharded ratio.
func probeMesh(cfg runConfig, tr *tracer, l *layers) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0, t0 := gcCPUSeconds(), cpuSeconds(), time.Now()
	single, err := experiments.RunMeshLoad(experiments.MeshLoadConfig{Seed: cfg.seed, Shards: 1, Invocations: cfg.scale.meshSlice})
	if err != nil {
		return err
	}
	gc1, cpu1 := gcCPUSeconds(), cpuSeconds()
	runtime.ReadMemStats(&m1)
	tr.add(0, 0, "probe.mesh_single", t0, time.Now())
	inv := float64(single.Invocations)
	l.set("cloudsim.ns_per_inv", float64(single.Wall.Nanoseconds())/inv)
	l.set("cloudsim.allocs_per_inv", float64(m1.Mallocs-m0.Mallocs)/inv)
	l.set("cloudsim.bytes_per_inv", float64(m1.TotalAlloc-m0.TotalAlloc)/inv)
	l.set("cloudsim.gc_cpu_frac", (gc1-gc0)/(cpu1-cpu0))

	t0 = time.Now()
	sharded, err := experiments.RunMeshLoad(experiments.MeshLoadConfig{Seed: cfg.seed, Shards: 4, Invocations: cfg.scale.meshSlice})
	if err != nil {
		return err
	}
	tr.add(0, 0, "probe.mesh_sharded4", t0, time.Now())
	if sharded.Checksum != single.Checksum {
		return fmt.Errorf("sharded4 checksum %016x differs from single-queue %016x", sharded.Checksum, single.Checksum)
	}
	l.set("sim.sharded4_ratio", (float64(sharded.Invocations)/sharded.Wall.Seconds())/(inv/single.Wall.Seconds()))
	return nil
}

// probeCore times world construction: the minimal runtime skyd and the
// experiments start from, and the full 698-deployment mesh.
func probeCore(_ runConfig, _ *tracer, l *layers) error {
	var news, builds []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := core.New(core.Config{Seed: worldSeed, SkipMesh: true, Metrics: metrics.NewRegistry()}); err != nil {
			return err
		}
		news = append(news, ms(time.Since(t0)))
	}
	for i := 0; i < 3; i++ {
		cloud := cloudsim.New(sim.NewEnv(epoch), worldSeed, cloudsim.DefaultCatalog(), cloudsim.Options{HorizonDays: 2})
		t0 := time.Now()
		m, err := mesh.Build(cloud, mesh.Config{})
		if err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t0)))
		sink = m
	}
	l.set("core.new_ms", median(news))
	l.set("mesh.build_full_ms", median(builds))
	return nil
}

// probeRouter characterizes and profiles an unpaced runtime, then times the
// routing decision from the strategy build down to one faas.Client.Do.
func probeRouter(cfg runConfig, _ *tracer, l *layers) error {
	rt, err := core.New(core.Config{
		Seed: worldSeed, SkipMesh: true, Metrics: metrics.NewRegistry(),
		CloudOpts: cloudsim.Options{HorizonDays: 2},
	})
	if err != nil {
		return err
	}
	err = rt.Do(func(p *sim.Proc) error {
		if _, err := rt.Refresh(p, candidates, 2); err != nil {
			return err
		}
		_, err := rt.ProfileWorkloads(p, []workload.ID{workload.Zipper}, candidates, 100)
		return err
	})
	if err != nil {
		return err
	}

	var buildErr error
	ns, _ := perOp(cfg.iters(1_000_000), func() {
		// As handleBurst does it: fresh locator and pricer closures a request.
		sink, buildErr = router.Build(router.StrategySpec{Name: "hybrid"},
			router.WithLocator(router.NewZoneLocator(rt.Cloud())),
			router.WithPricer(router.NewZonePricer(rt.Cloud())))
	})
	if buildErr != nil {
		return buildErr
	}
	l.set("router.strategy_build_ns", ns)

	strat, err := router.Build(router.StrategySpec{Name: "hybrid"})
	if err != nil {
		return err
	}
	dec := router.Decision{Workload: workload.Zipper, Candidates: candidates, Store: rt.Store(), Perf: rt.Perf(), Now: rt.Env().Now()}
	var tbl router.DecisionTable
	var ok bool
	ns, _ = perOp(cfg.iters(100_000), func() { tbl, ok = router.BuildDecisionTable(strat, dec, rt.Mesh(), 4096, 150) })
	if !ok {
		return errors.New("router.BuildDecisionTable picked no zone")
	}
	l.set("router.table_build_ns", ns)

	// Inline rather than through perOp: a closure call costs about what the
	// two calls being measured do.
	picks := cfg.iters(10_000_000)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var masks cpu.Mask
	var call faas.Call
	t0 := time.Now()
	for i := 0; i < picks; i++ {
		_, mask := tbl.Pick()
		masks |= mask
		call = tbl.Call(i&1 == 0)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	sink = [2]any{masks, call}
	l.set("router.pick_call_ns", float64(el.Nanoseconds())/float64(picks))
	l.set("router.pick_call_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(picks))

	// Ten unpaced bursts of a thousand, timed inside the process so that
	// draining the drift timeline after it is not counted.
	var burstNS, burstAllocs, doNS, doAllocs float64
	err = rt.Do(func(p *sim.Proc) error {
		const n = 1000
		bursts := cfg.iters(10)
		completed := 0
		var berr error
		ns, allocs := perOp(bursts, func() {
			res, err := rt.Router().Burst(p, router.BurstSpec{Strategy: strat, Workload: workload.Zipper, N: n, Candidates: candidates})
			if err != nil {
				berr = err
			}
			completed += res.Completed
		})
		if berr != nil {
			return berr
		}
		if completed != bursts*n {
			return fmt.Errorf("router.Burst completed %d of %d", completed, bursts*n)
		}
		burstNS, burstAllocs = ns/n, allocs/n

		ep, ok := rt.Mesh().Nearest(candidates[0], 4096, cpu.X86)
		if !ok {
			return fmt.Errorf("no mesh endpoint in %s", candidates[0])
		}
		spec := faas.NewInvokeSpec(faas.Call{AZ: ep.AZ, Function: ep.Function, Work: cloudsim.SleepBehavior{D: 15 * time.Millisecond}})
		failed := 0
		invocations := cfg.iters(50_000)
		doNS, doAllocs = perOp(invocations, func() {
			if resp := rt.Client().Do(p, spec); !resp.OK() {
				failed++
			}
		})
		if failed > 0 {
			return fmt.Errorf("faas.Client.Do failed %d of %d invocations", failed, invocations)
		}
		return nil
	})
	l.set("router.burst_ns_per_inv", burstNS)
	l.set("router.burst_allocs_per_inv", burstAllocs)
	l.set("faas.do_ns_per_inv", doNS)
	l.set("faas.do_allocs_per_inv", doAllocs)
	return err
}

// probeSampler times a six-poll quick characterization, unpaced, and the
// store reads a routing decision makes.
func probeSampler(cfg runConfig, _ *tracer, l *layers) error {
	rt, err := core.New(core.Config{
		Seed: worldSeed, SkipMesh: true, Metrics: metrics.NewRegistry(),
		CloudOpts: cloudsim.Options{HorizonDays: 2},
	})
	if err != nil {
		return err
	}
	var quick []float64
	err = rt.Do(func(p *sim.Proc) error {
		for _, az := range candidates {
			t0 := time.Now()
			if _, err := rt.Refresh(p, []string{az}, 6); err != nil {
				return err
			}
			quick = append(quick, ms(time.Since(t0)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("sampler.quick_char_ms", median(quick))

	// Draining the event queue moved the clock days on, past the store's
	// lifespan; read at the instant the characterization was taken.
	store := rt.Store()
	ch, ok := store.Last(candidates[0])
	if !ok {
		return fmt.Errorf("no characterization of %s after refresh", candidates[0])
	}
	now := ch.Taken
	ns, _ := perOp(cfg.iters(1_000_000), func() { sink, _ = store.Get(candidates[0], now) })
	l.set("charact.store_get_ns", ns)
	ns, _ = perOp(cfg.iters(1_000_000), func() { sink = ch.Dist() })
	l.set("charact.dist_ns", ns)
	return nil
}

// probeGovernors times the two gates a burst passes before it reaches the
// simulation, and the labelled counter every request increments on its way
// out.
func probeGovernors(cfg runConfig, _ *tracer, l *layers) error {
	now := time.Now()
	n := cfg.iters(1_000_000)
	gate, err := admission.New(admission.Config{Slots: 900})
	if err != nil {
		return err
	}
	shed := 0
	ns, allocs := perOp(n, func() {
		tk, err := gate.Admit(now, workload.Sha1Hash, 1)
		if err != nil {
			shed++
			return
		}
		gate.Done(tk, now, 50, true)
	})
	if shed > 0 {
		return fmt.Errorf("admission shed %d of %d sequential requests", shed, n)
	}
	l.set("admission.admit_done_ns", ns)
	l.set("admission.admit_done_allocs", allocs)

	reg := tenant.NewRegistry(tenant.Config{})
	acct := tenant.Tenant{ID: "alpha", Name: "alpha", Keys: []string{"sk-bench-alpha"}, QuotaSlots: 100000, BudgetPerHour: 1e6, BudgetCap: 1e6}
	if err := reg.Create(acct, now); err != nil {
		return err
	}
	ns, _ = perOp(n, func() { sink, _ = reg.Resolve("sk-bench-alpha") })
	l.set("tenant.resolve_ns", ns)
	limited := 0
	ns, _ = perOp(n, func() {
		lease, err := reg.Acquire("alpha", 1, now)
		if err != nil {
			limited++
			return
		}
		reg.Release(lease, now, 1e-7)
	})
	if limited > 0 {
		return fmt.Errorf("tenant governor refused %d of %d sequential requests", limited, n)
	}
	l.set("tenant.acquire_release_ns", ns)

	mreg := metrics.NewRegistry()
	ns, _ = perOp(n, func() {
		mreg.Counter("sky_skyd_http_requests_total", "requests served, by endpoint and status code",
			metrics.L("path", "/v1/burst"), metrics.L("code", "200")).Inc()
	})
	l.set("metrics.labelled_inc_ns", ns)
	return nil
}

// inlineActuator answers at once, so the tick measured is the control loop
// (forecast, sizing, dispatch) and not a simulated cloud round trip.
type inlineActuator struct{ live map[string]int }

func (a *inlineActuator) EnsureWarm(az string, target, _ int, done func(warmpool.Provision)) {
	var r warmpool.Provision
	if deficit := target - a.live[az]; deficit > 0 {
		r.Requested, r.Provisioned, r.CostUSD = deficit, deficit, float64(deficit)*0.0001
		a.live[az] += deficit
	}
	r.Live, r.Idle = a.live[az], a.live[az]
	done(r)
}

// probeWarmPool times the warm-pool control loop over 32 primed zones, set
// up as BenchmarkWarmPoolTick sets it up but ticked through Start and the
// event loop, the only way in from outside the package.
func probeWarmPool(cfg runConfig, _ *tracer, l *layers) error {
	env := sim.NewEnv(epoch)
	zones := make([]string, 32)
	for i := range zones {
		zones[i] = fmt.Sprintf("az-%02d", i)
	}
	const tickEvery = 30 * time.Second
	m, err := warmpool.New(env, warmpool.Config{
		Zones: zones, Mode: warmpool.ModePredictive, TickEvery: tickEvery,
		Window: time.Minute, Season: 20 * time.Minute,
	}, &inlineActuator{live: map[string]int{}}, func() float64 { return 150 }, nil)
	if err != nil {
		return err
	}
	for w := 0; w < 40; w++ {
		w := w
		env.Schedule(time.Duration(w)*time.Minute, func() {
			for i, az := range zones {
				m.ObserveTraffic(az, 40+30*((w+i)%10))
			}
		})
	}
	if err := env.RunFor(40 * time.Minute); err != nil {
		return err
	}
	ticks := cfg.iters(100_000)
	m.Start()
	var runErr error
	ns, allocs := perOp(1, func() { runErr = env.RunFor(time.Duration(ticks) * tickEvery) })
	m.Stop()
	l.set("warmpool.tick_ns", ns/float64(ticks))
	l.set("warmpool.tick_allocs", allocs/float64(ticks))
	return runErr
}

// probeExperiments runs one pass of paper_repro for the wall seconds of each
// experiment in it.
func probeExperiments(cfg runConfig, tr *tracer, l *layers) error {
	m := paperRepro(cfg.seed, cfg.scale.experiments, 0, tr, probePassReq, cfg.expectedDir)
	if m.err != nil {
		return m.err
	}
	for name, v := range m.info {
		l.set(name, v)
	}
	return nil
}
