package experiments

import (
	"errors"
	"fmt"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/cpu"
	"skyfaas/internal/faas"
	"skyfaas/internal/load"
	"skyfaas/internal/rng"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/tenant"
	"skyfaas/internal/workload"
)

// EX-8, EX-10 and EX-11 are open-loop experiments on one zone, and this is
// what they share: a fresh world per cell, set up the way skyd seeds its
// admission gate, and arrival schedules that never adapt to the answers,
// each request taking core.Pipeline, the request path skyd serves.

// openLoop is the configuration the open-loop experiments share.
type openLoop struct {
	// Quota is the per-account concurrent execution limit the admission
	// gate protects (default 60; the gate's slot limit is TargetUtil x Quota).
	Quota int
	// ProfileRuns trains the perf model before the gate is seeded and
	// doubles as warmup for the zone's instance pool (default 240).
	ProfileRuns int
}

const (
	// openLoopZone is the zone under load.
	openLoopZone = "us-west-1a"
	// openLoopWorkload is the workload under test: sha1_hash is CPU-bound
	// with a ~1s service time, so a small quota saturates at a low, easily
	// swept rate.
	openLoopWorkload = workload.Sha1Hash
	// openLoopInitPolls is the characterization depth that seeds the
	// gate's service-time estimate.
	openLoopInitPolls = 2
)

// openLoopSampler is the polling configuration, scaled to fit the small
// quota so characterization isn't throttled itself.
var openLoopSampler = sampler.Config{
	Endpoints: 40, PollSize: 50, Branch: 7,
	InterPollPause: 500 * time.Millisecond,
}

// clientRetry is EX-8's and EX-10's client policy for transient failures:
// 6 attempts, 50ms base backoff, doubling. It matters where throttles
// reach the client: EX-8's no-admission arm, where they turn into a retry
// storm; behind EX-10's gate in-flight stays below the provider quota, so
// it rarely fires.
var clientRetry = faas.RetryPolicy{MaxAttempts: 6, BaseBackoff: 50 * time.Millisecond}

func (c openLoop) withDefaults() openLoop {
	if c.Quota == 0 {
		c.Quota = 60
	}
	if c.ProfileRuns == 0 {
		c.ProfileRuns = 240
	}
	return c
}

// reduced is the benchmark-scale quota and profiling depth.
func (c openLoop) reduced() openLoop {
	c.Quota = 30
	c.ProfileRuns = 120
	return c
}

// openLoopWorld is one cell's world once the shared setup has run.
type openLoopWorld struct {
	rt *core.Runtime
	// gate is built in every cell, consulted or not, so its capacity
	// estimate (rps), and every rate scaled from it, is the same in all.
	gate     *admission.Controller
	capacity float64
	// spec is the invocation every arrival makes (no retries unless set).
	spec faas.InvokeSpec
}

// runCell builds a fresh world for one cell, with the same seed,
// characterization and warmup as every other, and runs body in it as the
// client process; keepAlive overrides the platform's when set. The first
// cell's capacity estimate goes into *capacity, and a later cell's that
// differs means the worlds diverged, which voids the comparison.
func (c openLoop) runCell(seed uint64, keepAlive time.Duration, capacity *float64, body func(p *sim.Proc, w *openLoopWorld) error) error {
	rt, err := core.New(core.Config{
		Seed:       seed,
		Epoch:      defaultEpoch,
		SamplerCfg: openLoopSampler,
		CloudOpts:  cloudsim.Options{Quota: c.Quota, KeepAlive: keepAlive, HorizonDays: 2},
		SkipMesh:   true,
	})
	if err != nil {
		return err
	}
	return rt.Do(func(p *sim.Proc) error {
		if _, err := rt.Refresh(p, []string{openLoopZone}, openLoopInitPolls); err != nil {
			return err
		}
		if _, err := rt.ProfileWorkloads(p, []workload.ID{openLoopWorkload}, []string{openLoopZone}, c.ProfileRuns); err != nil {
			return err
		}
		gate, err := rt.EnableAdmission(admission.Config{})
		if err != nil {
			return err
		}
		ep, ok := rt.Mesh().Lookup(openLoopZone, 4096, cpu.X86)
		if !ok {
			return fmt.Errorf("no mesh endpoint in %s", openLoopZone)
		}
		w := &openLoopWorld{rt: rt, gate: gate, capacity: gate.CapacityRPS(openLoopWorkload),
			spec: faas.InvokeSpec{Call: faas.Call{AZ: openLoopZone, Function: ep.Function, Work: cloudsim.WorkBehavior{Workload: openLoopWorkload}}}}
		if *capacity != 0 && *capacity != w.capacity {
			return fmt.Errorf("capacity estimate drifted across cells: %v vs %v", *capacity, w.capacity)
		}
		*capacity = w.capacity
		return body(p, w)
	})
}

// stream is one population of open-loop arrivals: its tenant, its mean
// offered rate and its arrival offsets from the start of the serve phase.
// onArrival runs as each arrival lands and onServed sees each response;
// out, when set, receives the population's report over the serve phase.
type stream struct {
	tenant    string
	offered   float64
	at        []time.Duration
	onArrival func()
	onServed  func(resp cloudsim.Response)
	out       *load.Report
	rec       *load.Recorder
}

// constantStream is tenant's constant-rate schedule of rps for d,
// reporting into out.
func constantStream(tenant string, rps float64, d time.Duration, r *rng.Stream, out *load.Report) (*stream, error) {
	sched := load.Schedule{Pattern: load.Constant, PeakRPS: rps, Duration: d}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	return &stream{tenant: tenant, offered: rps, at: sched.Arrivals(r), out: out}, nil
}

// serve schedules every stream's arrivals, stream by stream, through the
// pipeline over tenants (nil: no tenant stage) and, if admit, the gate: a
// shed is recorded at zero latency (the check is local), an admitted
// request is served with client.Do and settled. It returns once all are.
func (w *openLoopWorld) serve(p *sim.Proc, tenants *tenant.Registry, admit bool, streams ...*stream) error {
	env, client := w.rt.Env(), w.rt.Client()
	var gate *admission.Controller
	if admit {
		gate = w.gate
	}
	pl := core.NewPipeline(tenants, gate, env.Now)
	remaining := 0
	for _, s := range streams {
		remaining += len(s.at)
	}
	if remaining == 0 {
		return errors.New("empty arrival schedule")
	}
	start := env.Now()
	drained := sim.NewEvent(env)
	finish := func() {
		if remaining--; remaining == 0 {
			drained.Trigger(nil)
		}
	}
	for _, s := range streams {
		s.rec = load.NewRecorder()
		for _, at := range s.at {
			env.Schedule(at, func() {
				if s.onArrival != nil {
					s.onArrival()
				}
				s.rec.Begin()
				pass, err := pl.Admit(s.tenant, openLoopWorkload, 1)
				if err != nil {
					s.rec.RecordRetryAfter(retryAfter(err))
					s.rec.Record(load.Shed, 0)
					finish()
					return
				}
				sent := env.Now()
				env.Go("open-loop-req", func(rp *sim.Proc) error {
					resp := client.Do(rp, w.spec)
					pl.Finish(pass, resp.BilledMS, resp.OK(), resp.CostUSD)
					if s.onServed != nil {
						s.onServed(resp)
					}
					outcome := load.OK
					if !resp.OK() {
						outcome = load.Errored
					}
					s.rec.Record(outcome, float64(env.Now().Sub(sent))/float64(time.Millisecond))
					finish()
					return nil
				})
			})
		}
	}
	p.Wait(drained)
	for _, s := range streams {
		if s.out != nil {
			*s.out = s.rec.Report(s.offered, env.Now().Sub(start))
		}
	}
	return nil
}

// retryAfter is the Retry-After hint a pipeline shed carries.
func retryAfter(err error) time.Duration {
	var le *tenant.LimitError
	var shed *admission.ShedError
	switch {
	case errors.As(err, &le):
		return le.RetryAfter
	case errors.As(err, &shed):
		return shed.RetryAfter
	}
	return 0
}

// findCell returns the first of cells that match accepts.
func findCell[C any](cells []C, match func(C) bool) (C, bool) {
	for _, c := range cells {
		if match(c) {
			return c, true
		}
	}
	var none C
	return none, false
}
