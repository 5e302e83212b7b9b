// Package core assembles the serverless sky computing runtime — the
// paper's primary contribution. A Runtime owns a simulated multi-cloud, a
// sky mesh of dynamic functions over it, an infrastructure sampler, a
// characterization store, a per-workload performance model, and the smart
// routing system that turns all of that into placement decisions.
//
// The flow mirrors §3: deploy the mesh once; characterize zones with the
// sampler (cheaply, a few polls — or exhaustively, to saturation); profile
// workloads to learn per-CPU performance; then route bursts with a
// Strategy (baseline / regional / retry / hybrid).
package core

import (
	"fmt"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/chaos"
	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/faas"
	"skyfaas/internal/mesh"
	"skyfaas/internal/metrics"
	"skyfaas/internal/refresh"
	"skyfaas/internal/router"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/warmpool"
	"skyfaas/internal/workload"
)

// account is the billing account the runtime's client runs under. Every
// runtime is one tenant of the simulated sky, so the name only labels its
// bill; EX-1's second account builds its own client.
const account = "sky"

// Config assembles a Runtime. Zero values take paper defaults.
type Config struct {
	// Seed drives every stochastic element; equal seeds replay exactly.
	Seed uint64
	// Epoch is the virtual start time (default 2026-01-05 00:00 UTC, a
	// Monday).
	Epoch time.Time
	// Catalog overrides the default 41-region world (nil = full world).
	Catalog []cloudsim.RegionSpec
	// CloudOpts tunes platform mechanics.
	CloudOpts cloudsim.Options
	// SamplerCfg tunes the polling technique.
	SamplerCfg sampler.Config
	// StoreTTL is the characterization lifespan (default 24h).
	StoreTTL time.Duration
	// SkipMesh deploys the mesh's minimal matrix (one x86 endpoint per
	// zone) instead of the full one, for a fast start.
	SkipMesh bool
	// Metrics receives runtime instrumentation (router decisions, cloudsim
	// per-zone counters, latency histograms). Nil means the process-wide
	// metrics.Default() registry, so CLI tools can dump a single snapshot
	// covering every runtime the process ran.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Epoch.IsZero() {
		c.Epoch = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	}
	if c.StoreTTL == 0 {
		c.StoreTTL = 24 * time.Hour
	}
	if c.Metrics == nil {
		c.Metrics = metrics.Default()
	}
	return c
}

// Runtime is a fully assembled serverless sky computing system.
type Runtime struct {
	env       *sim.Env
	cloud     *cloudsim.Cloud
	client    *faas.Client
	mesh      *mesh.Mesh
	sampler   *sampler.Sampler
	store     *charact.Store
	perf      *router.PerfModel
	router    *router.Router
	chaos     *chaos.Injector
	metrics   *metrics.Registry
	sampled   map[string]bool // zones with sampling endpoints deployed
	refresher *refresh.Maintainer
	gate      *admission.Controller
	warmer    *warmpool.Maintainer
	// trafficSinks fans the router's single traffic callback out to every
	// subsystem observing routed completions (refresh urgency weighting,
	// warm-pool forecasting).
	trafficSinks []func(az string, completed int)
}

// New builds a Runtime, deploying the full mesh or, with cfg.SkipMesh, the
// minimal one.
func New(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	env := sim.NewEnv(cfg.Epoch)
	if cfg.CloudOpts.Metrics == nil {
		cfg.CloudOpts.Metrics = cfg.Metrics
	}
	cloud := cloudsim.New(env, cfg.Seed, cfg.Catalog, cfg.CloudOpts)
	client := faas.NewClient(cloud, account, faas.WithSeed(cfg.Seed))
	rt := &Runtime{
		env:     env,
		cloud:   cloud,
		client:  client,
		sampler: sampler.New(client, cfg.SamplerCfg),
		store:   charact.NewStore(cfg.StoreTTL),
		perf:    router.NewPerfModel(),
		metrics: cfg.Metrics,
		sampled: make(map[string]bool),
	}
	m, err := mesh.Build(cloud, mesh.Config{Minimal: cfg.SkipMesh})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rt.mesh = m
	rt.router = router.New(client, rt.mesh, rt.store, rt.perf)
	rt.router.UseMetrics(rt.metrics)
	rt.router.UseSeed(cfg.Seed)
	rt.chaos = chaos.NewInjector(cloud, cfg.Metrics)
	return rt, nil
}

// Env returns the simulation environment.
func (rt *Runtime) Env() *sim.Env { return rt.env }

// Cloud returns the simulated sky.
func (rt *Runtime) Cloud() *cloudsim.Cloud { return rt.cloud }

// Client returns the account-scoped FaaS client.
func (rt *Runtime) Client() *faas.Client { return rt.client }

// Mesh returns the deployed sky mesh.
func (rt *Runtime) Mesh() *mesh.Mesh { return rt.mesh }

// Sampler returns the infrastructure sampler.
func (rt *Runtime) Sampler() *sampler.Sampler { return rt.sampler }

// Store returns the characterization store.
func (rt *Runtime) Store() *charact.Store { return rt.store }

// Perf returns the learned performance model.
func (rt *Runtime) Perf() *router.PerfModel { return rt.perf }

// Router returns the smart routing system.
func (rt *Runtime) Router() *router.Router { return rt.router }

// Chaos returns the fault injector over this runtime's cloud.
func (rt *Runtime) Chaos() *chaos.Injector { return rt.chaos }

// Metrics returns the instrumentation registry every layer of this runtime
// reports into.
func (rt *Runtime) Metrics() *metrics.Registry { return rt.metrics }

// Do runs fn as the client process and drives the simulation until all
// work completes, returning fn's error.
func (rt *Runtime) Do(fn func(p *sim.Proc) error) error {
	proc := rt.env.Go("client", fn)
	if err := rt.env.Run(); err != nil {
		return err
	}
	return proc.Err()
}

// EnsureSamplerEndpoints deploys the zone's sampling functions once.
func (rt *Runtime) EnsureSamplerEndpoints(az string) error {
	if rt.sampled[az] {
		return nil
	}
	if err := rt.sampler.Deploy(az); err != nil {
		return err
	}
	rt.sampled[az] = true
	return nil
}

// Characterize drives a zone to saturation (EX-1 style), stores the
// resulting ground-truth characterization, and returns it with the
// per-poll trail.
func (rt *Runtime) Characterize(p *sim.Proc, az string) (charact.Characterization, []sampler.PollResult, error) {
	if err := rt.EnsureSamplerEndpoints(az); err != nil {
		return charact.Characterization{}, nil, err
	}
	ch, trail, err := rt.sampler.Characterize(p, az)
	if err != nil {
		return ch, trail, err
	}
	rt.store.Put(ch)
	return ch, trail, nil
}

// Refresh updates zone characterizations with a fixed number of polls (the
// cheap daily mode) and returns the total sampling spend.
func (rt *Runtime) Refresh(p *sim.Proc, azs []string, polls int) (float64, error) {
	var cost float64
	for _, az := range azs {
		if err := rt.EnsureSamplerEndpoints(az); err != nil {
			return cost, err
		}
		ch, _, err := rt.sampler.CharacterizeQuick(p, az, polls)
		if err != nil {
			return cost, err
		}
		rt.store.Put(ch)
		cost += ch.CostUSD
	}
	return cost, nil
}

// EnablePassiveCharacterization attaches a passive collector (window 0 =
// 24h): all routed traffic feeds it, and RefreshPassive can then update the
// store at zero sampling cost for zones carrying enough traffic.
func (rt *Runtime) EnablePassiveCharacterization(window time.Duration) *charact.Passive {
	p := charact.NewPassive(window)
	rt.router.UsePassive(p)
	return p
}

// runtimeResampler adapts the runtime's sampler to the refresh.Resampler
// surface: ensure sampling endpoints exist, then run the cheap quick mode.
// The maintainer stores the result and accounts the spend itself.
type runtimeResampler struct{ rt *Runtime }

func (r runtimeResampler) Resample(p *sim.Proc, az string, polls int) (charact.Characterization, error) {
	if err := r.rt.EnsureSamplerEndpoints(az); err != nil {
		return charact.Characterization{}, err
	}
	ch, _, err := r.rt.sampler.CharacterizeQuick(p, az, polls)
	return ch, err
}

// EnableRefresh assembles the continuous characterization-maintenance loop
// over this runtime: drift detection against the passive collector (attach
// one first via EnablePassiveCharacterization for drift mode to gain
// confidence), budgeted re-sampling through the runtime's sampler, and the
// router's traffic feed for urgency weighting. The returned maintainer is
// not started; call Start to arm its control loop.
func (rt *Runtime) EnableRefresh(cfg refresh.Config) (*refresh.Maintainer, error) {
	m, err := refresh.New(rt.env, cfg, rt.store, rt.router.Passive(), runtimeResampler{rt}, rt.metrics)
	if err != nil {
		return nil, err
	}
	rt.addTrafficSink(m.ObserveTraffic)
	rt.refresher = m
	return m, nil
}

// Refresher returns the maintenance loop (nil until EnableRefresh).
func (rt *Runtime) Refresher() *refresh.Maintainer { return rt.refresher }

// addTrafficSink subscribes fn to the router's completed-traffic feed. The
// router carries a single callback slot, so the first subscription installs
// a fan-out closure over the runtime's sink list.
func (rt *Runtime) addTrafficSink(fn func(az string, completed int)) {
	rt.trafficSinks = append(rt.trafficSinks, fn)
	if len(rt.trafficSinks) == 1 {
		rt.router.UseTrafficSink(func(az string, completed int) {
			for _, sink := range rt.trafficSinks {
				sink(az, completed)
			}
		})
	}
}

// runtimeActuator adapts the cloud's warm-pool actuator to the warmpool
// policy surface: resolve the zone's mesh endpoint once, then drive
// Cloud.StartEnsureWarm (one intra-cloud round trip) billing the runtime's
// account.
type runtimeActuator struct {
	rt       *Runtime
	memoryMB int
	arch     cpu.Arch
	byZone   map[string]string // az -> resolved function name
}

func (a *runtimeActuator) resolve(az string) (string, bool) {
	if fn, ok := a.byZone[az]; ok {
		return fn, fn != ""
	}
	fn := ""
	if ep, ok := a.rt.mesh.Lookup(az, a.memoryMB, a.arch); ok {
		fn = ep.Function
	} else {
		// Zones deployed at other memory settings (e.g. DO's 1 GB matrix):
		// fall back to the zone's first endpoint of the right arch.
		for _, ep := range a.rt.mesh.Endpoints() {
			if ep.AZ == az && ep.Arch == a.arch {
				fn = ep.Function
				break
			}
		}
	}
	a.byZone[az] = fn
	return fn, fn != ""
}

func (a *runtimeActuator) EnsureWarm(az string, target, floor int, done func(warmpool.Provision)) {
	fn, ok := a.resolve(az)
	if !ok {
		a.rt.env.Schedule(0, func() {
			done(warmpool.Provision{Err: fmt.Errorf("core: no mesh endpoint in %s to keep warm", az)})
		})
		return
	}
	a.rt.cloud.StartEnsureWarm(az, fn, target, floor, a.rt.client.Account(), func(r cloudsim.ProvisionResult) {
		done(warmpool.Provision{
			Live:        r.Live,
			Idle:        r.Idle,
			Requested:   r.Requested,
			Provisioned: r.Provisioned,
			CostUSD:     r.CostUSD,
			Err:         r.Err,
		})
	})
}

// EnableWarmPool assembles the predictive pre-warming loop over this
// runtime: per-zone arrival forecasting fed by the router's traffic feed, a
// Little's-law sizer over the admission gate's service-time estimate for w
// (enable admission first; the catalog BaseMS is the fallback), and
// actuation through the cloud's PreWarm/SetFloor API against each zone's
// x86 mesh endpoint, billed to the runtime's account. The returned
// maintainer is not started; call Start to arm its control loop.
func (rt *Runtime) EnableWarmPool(cfg warmpool.Config, w workload.ID) (*warmpool.Maintainer, error) {
	act := &runtimeActuator{rt: rt, memoryMB: 4096, arch: cpu.X86, byZone: make(map[string]string)}
	svc := func() float64 {
		if rt.gate != nil {
			if ms := rt.gate.ServiceMS(w); ms > 0 {
				return ms
			}
		}
		if spec, ok := workload.Get(w); ok && spec.BaseMS > 0 {
			return spec.BaseMS
		}
		return 1000
	}
	m, err := warmpool.New(rt.env, cfg, act, svc, rt.metrics)
	if err != nil {
		return nil, err
	}
	rt.addTrafficSink(m.ObserveTraffic)
	rt.warmer = m
	return m, nil
}

// WarmPool returns the pre-warming loop (nil until EnableWarmPool).
func (rt *Runtime) WarmPool() *warmpool.Maintainer { return rt.warmer }

// EnableAdmission builds the overload-control gate over this runtime.
// Slots defaults to the platform quota minus headroom for the router's
// profiling probes, and every workload's service-time estimate is seeded
// from what the runtime has already learned: the performance model's
// expected runtime over each characterized zone's CPU distribution
// (averaged across zones) when profiling data exists, the catalog BaseMS
// otherwise. The controller reports into the runtime's metrics registry
// unless cfg.Metrics overrides it.
func (rt *Runtime) EnableAdmission(cfg admission.Config) (*admission.Controller, error) {
	if cfg.Slots == 0 {
		quota := rt.cloud.Options().Quota
		headroom := quota / 10
		if headroom < 5 {
			headroom = 5
		}
		cfg.Slots = quota - headroom
		if cfg.Slots < 1 {
			cfg.Slots = 1
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = rt.metrics
	}
	gate, err := admission.New(cfg)
	if err != nil {
		return nil, err
	}
	now := rt.env.Now()
	for _, w := range workload.IDs() {
		var sum float64
		var n int
		for _, az := range rt.store.Zones() {
			ch, ok := rt.store.Get(az, now)
			if !ok {
				continue
			}
			if ms, ok := rt.perf.ExpectedMS(w, ch.Dist()); ok && ms > 0 {
				sum += ms
				n++
			}
		}
		if n > 0 {
			gate.Seed(w, sum/float64(n))
		}
	}
	rt.gate = gate
	return gate, nil
}

// Admission returns the overload-control gate (nil until EnableAdmission).
func (rt *Runtime) Admission() *admission.Controller { return rt.gate }

// RefreshPassive updates the store from passive observations wherever at
// least minSamples instances were seen within the collector window. It
// returns the zones refreshed.
func (rt *Runtime) RefreshPassive(azs []string, minSamples int) []string {
	passive := rt.router.Passive()
	if passive == nil {
		return nil
	}
	now := rt.env.Now()
	var refreshed []string
	for _, az := range azs {
		if ch, ok := passive.Characterization(az, now, minSamples); ok {
			rt.store.Put(ch)
			refreshed = append(refreshed, az)
		}
	}
	return refreshed
}

// ProfileWorkloads learns per-CPU runtimes for each workload across zones
// (EX-5's baseline step), returning total profiling spend.
func (rt *Runtime) ProfileWorkloads(p *sim.Proc, ws []workload.ID, azs []string, nPerAZ int) (float64, error) {
	var cost float64
	for _, w := range ws {
		c, err := rt.router.Profile(p, w, azs, nPerAZ, 0)
		if err != nil {
			return cost, err
		}
		cost += c
	}
	return cost, nil
}

// Run executes one routed burst.
func (rt *Runtime) Run(p *sim.Proc, spec router.BurstSpec) (router.BurstResult, error) {
	return rt.router.Burst(p, spec)
}
