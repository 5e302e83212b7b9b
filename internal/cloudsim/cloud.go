// Package cloudsim is the simulated sky: a deterministic discrete-event
// model of multiple FaaS providers, their regions and availability zones,
// the finite heterogeneous host pools behind them, and the function-
// instance lifecycle the paper's sampling technique exploits.
//
// See DESIGN.md §2 for the substitution argument: the phenomena the paper
// measures on live clouds (CPU heterogeneity, keep-alive, saturation,
// temporal drift, GB-second billing) are reproduced here as explicit
// mechanisms, so the sampling/characterization/routing stack above runs
// unmodified against either.
package cloudsim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/metrics"
	"skyfaas/internal/rng"
	"skyfaas/internal/saaf"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// Provider is a FaaS platform operator.
type Provider int

// The providers the paper's sky mesh spans.
const (
	AWS Provider = iota + 1
	IBM
	DO
)

// String returns the provider's display name.
func (p Provider) String() string {
	switch p {
	case AWS:
		return "aws-lambda"
	case IBM:
		return "ibm-code-engine"
	case DO:
		return "do-functions"
	default:
		return fmt.Sprintf("Provider(%d)", int(p))
	}
}

// RegionSpec statically describes a region: who operates it, where it is,
// and the zones it contains.
type RegionSpec struct {
	Provider Provider
	Name     string
	Loc      geo.Coord
	AZs      []AZSpec
}

// AZSpec statically describes one availability zone's provisioned pool and
// its temporal personality.
type AZSpec struct {
	Name string
	// PoolFIs is the day-0 x86 capacity in function-instance slots.
	PoolFIs int
	// ArmPoolFIs is the Graviton capacity (0 for providers without arm64).
	ArmPoolFIs int
	// HostFIs is the FI capacity per host (0 = default 128). Larger hosts
	// make single polls see fewer machines and so raise single-poll error.
	HostFIs int
	// Mix is the day-0 CPU distribution over x86 hosts.
	Mix map[cpu.Kind]float64
	// ReserveMix, with ReserveFrac, models the slow scale-up reaction to
	// saturation; a reserve mix different from Mix produces EX-3's
	// "previously unseen hardware" anomaly.
	ReserveMix  map[cpu.Kind]float64
	ReserveFrac float64
	// DailyDrift is the fraction of idle hosts re-drawn each day.
	DailyDrift float64
	// MixWalk is the random-walk step of the daily target-mix drift.
	MixWalk float64
	// HourlyDrift enables intra-day churn (us-west-1b's Fig.-8 behaviour).
	HourlyDrift float64
	// CapJitter is the daily capacity jitter fraction.
	CapJitter float64
	// ContentionAmp and PeakHourUTC shape the diurnal load factor.
	ContentionAmp float64
	PeakHourUTC   int
}

// Region is the live counterpart of a RegionSpec.
type Region struct {
	spec RegionSpec
	azs  []*AZ
	// env is the event shard this region's zones run on. In a single-queue
	// cloud it is the cloud's env; under a sharded engine each region is
	// pinned to one shard so all of its state stays single-threaded.
	env *sim.Env
	// inflight tracks per-account concurrent executions for quota purposes.
	// Owned by the region's shard; never touched from another shard.
	inflight map[string]int
}

// Spec returns the region's static description.
func (r *Region) Spec() RegionSpec { return r.spec }

// Name returns the region name.
func (r *Region) Name() string { return r.spec.Name }

// Provider returns the operating provider.
func (r *Region) Provider() Provider { return r.spec.Provider }

// Loc returns the region's coordinates.
func (r *Region) Loc() geo.Coord { return r.spec.Loc }

// AZs returns the region's zones in catalog order.
func (r *Region) AZs() []*AZ {
	out := make([]*AZ, len(r.azs))
	copy(out, r.azs)
	return out
}

// Options tune platform mechanics. The zero value is completed by defaults.
type Options struct {
	// KeepAlive is how long an idle instance persists (5 min on Lambda).
	KeepAlive time.Duration
	// Quota is the per-account, per-region concurrent execution limit.
	Quota int
	// ColdStartMS / ColdStartSigma parameterize the lognormal cold-start
	// initialization delay (unbilled, like managed-runtime init).
	ColdStartMS    float64
	ColdStartSigma float64
	// OverheadMS is the fixed per-invocation platform overhead (billed).
	OverheadMS float64
	// IntraCloudRTT is the round trip for requests without a client
	// location (function-to-function within a zone).
	IntraCloudRTT time.Duration
	// ScaleUpDelay is how long the platform takes to bring reserve hosts
	// online after saturation.
	ScaleUpDelay time.Duration
	// HorizonDays bounds the pre-scheduled drift timeline.
	HorizonDays int
	// Latency is the client-to-region RTT model.
	Latency geo.LatencyModel
	// OnResponse, when set, observes every response as it is delivered to
	// its caller — the platform-side tap for logging and tracing. It runs
	// inside the simulation and must not block.
	OnResponse func(Request, Response)
	// Metrics, when set, receives per-zone instrumentation (invocations,
	// cold starts, failures, saturation events, live instances, billed
	// latency). Nil disables instrumentation at zero cost.
	Metrics *metrics.Registry
}

// WithDefaults returns o with every zero field replaced by its paper
// default; exported so engine builders can derive synchronization bounds
// (the sharded lookahead) from the effective options.
func (o Options) WithDefaults() Options {
	if o.KeepAlive == 0 {
		o.KeepAlive = 5 * time.Minute
	}
	if o.Quota == 0 {
		o.Quota = 1000
	}
	if o.ColdStartMS == 0 {
		o.ColdStartMS = 140
	}
	if o.ColdStartSigma == 0 {
		o.ColdStartSigma = 0.25
	}
	if o.OverheadMS == 0 {
		o.OverheadMS = 1.5
	}
	if o.IntraCloudRTT == 0 {
		o.IntraCloudRTT = 2 * time.Millisecond
	}
	if o.ScaleUpDelay == 0 {
		o.ScaleUpDelay = 25 * time.Second
	}
	if o.HorizonDays == 0 {
		o.HorizonDays = 30
	}
	if o.Latency == (geo.LatencyModel{}) {
		o.Latency = geo.DefaultLatencyModel()
	}
	return o
}

// Cloud is the simulated multi-provider sky.
type Cloud struct {
	env      *sim.Env
	root     *rng.Stream
	opts     Options
	regions  []*Region
	regionBy map[string]*Region
	azBy     map[string]*AZ
	prices   map[Provider]PriceModel
	meter    *Meter
	// latRands holds one client-latency jitter stream per shard, indexed by
	// the calling env's shard, so concurrent shards never interleave draws
	// on a shared stream. A single-queue cloud has exactly one.
	latRands []*rng.Stream
}

// New builds a cloud over env from the given catalog. A nil or empty
// catalog means the full 41-region default world.
//
// When env belongs to a sim.Sharded group with more than one shard, the
// cloud distributes regions round-robin over shards 1..N-1, keeping shard 0
// (by convention env itself) free for client-side model code; every zone's
// events then run on its region's shard, synchronized conservatively by the
// network latency between client and region (the group lookahead must not
// exceed IntraCloudRTT/2). With a plain env or a one-shard group everything
// runs on env, byte-identical to the historical single-queue behaviour.
func New(env *sim.Env, seed uint64, catalog []RegionSpec, opts Options) *Cloud {
	if len(catalog) == 0 {
		catalog = DefaultCatalog()
	}
	c := &Cloud{
		env:      env,
		root:     rng.New(seed).Split("cloud"),
		opts:     opts.WithDefaults(),
		regionBy: make(map[string]*Region, len(catalog)),
		azBy:     make(map[string]*AZ),
		prices:   defaultPrices(),
		meter:    NewMeter(),
	}
	nShards := 1
	if g := env.Group(); g != nil {
		nShards = g.NumShards()
	}
	c.latRands = make([]*rng.Stream, nShards)
	c.latRands[0] = c.root.Split("latency")
	for i := 1; i < nShards; i++ {
		c.latRands[i] = c.root.Split(fmt.Sprintf("latency/%d", i))
	}
	for i, rs := range catalog {
		region := &Region{
			spec:     rs,
			env:      shardEnvFor(env, i),
			inflight: make(map[string]int),
		}
		for _, azSpec := range rs.AZs {
			az := newAZ(c, region, azSpec)
			region.azs = append(region.azs, az)
			c.azBy[azSpec.Name] = az
		}
		c.regions = append(c.regions, region)
		c.regionBy[rs.Name] = region
	}
	c.scheduleDrift()
	return c
}

// shardEnvFor maps the i'th catalog region onto a shard: round-robin over
// shards 1..N-1, reserving shard 0 for clients. Single-queue setups (plain
// env or one-shard group) map everything onto env.
func shardEnvFor(env *sim.Env, i int) *sim.Env {
	g := env.Group()
	if g == nil || g.NumShards() < 2 {
		return env
	}
	return g.Shard(1 + i%(g.NumShards()-1))
}

// scheduleDrift lays out the bounded drift timeline so Env.Run terminates.
// Each zone's timeline lives on its own shard.
func (c *Cloud) scheduleDrift() {
	for _, region := range c.regions {
		for _, az := range region.azs {
			// One method value per zone, not one per scheduled event.
			daily, hourly := az.driftDaily, az.driftHourly
			for day := 1; day <= c.opts.HorizonDays; day++ {
				az.env.Schedule(time.Duration(day)*24*time.Hour, daily)
			}
			if az.spec.HourlyDrift > 0 {
				hours := c.opts.HorizonDays * 24
				for h := 1; h <= hours; h++ {
					az.env.Schedule(time.Duration(h)*time.Hour, hourly)
				}
			}
		}
	}
}

// Env returns the control environment the cloud was built on (shard 0 of a
// sharded group; the only environment of a single-queue cloud).
func (c *Cloud) Env() *sim.Env { return c.env }

// Meter returns the cloud-wide billing meter (charged per account).
func (c *Cloud) Meter() *Meter { return c.meter }

// Options returns the effective platform options.
func (c *Cloud) Options() Options { return c.opts }

// Price returns the rate card of a provider.
func (c *Cloud) Price(p Provider) PriceModel { return c.prices[p] }

// Regions returns all regions in catalog order.
func (c *Cloud) Regions() []*Region {
	out := make([]*Region, len(c.regions))
	copy(out, c.regions)
	return out
}

// Region returns a region by name.
func (c *Cloud) Region(name string) (*Region, bool) {
	r, ok := c.regionBy[name]
	return r, ok
}

// AZ returns a zone by name.
func (c *Cloud) AZ(name string) (*AZ, bool) {
	az, ok := c.azBy[name]
	return az, ok
}

// DeployConfig configures a function deployment.
type DeployConfig struct {
	MemoryMB int
	Arch     cpu.Arch
	Behavior Behavior
	// Dynamic marks the deployment as a dynamic function: invocations may
	// carry a Work override in the request (§3.2).
	Dynamic  bool
	CodeHash string
}

// Deploy creates a function deployment in the named zone.
func (c *Cloud) Deploy(azName, fnName string, cfg DeployConfig) (*Deployment, error) {
	az, ok := c.azBy[azName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchAZ, azName)
	}
	return az.deploy(fnName, cfg)
}

// Request is one function invocation.
type Request struct {
	// Account owns the invocation for quota and billing purposes.
	Account string
	// AZ and Function address the deployment.
	AZ       string
	Function string
	// Work optionally overrides the deployment behavior; allowed only for
	// dynamic deployments.
	Work Behavior
	// PayloadHash keys the dynamic-function per-instance cache.
	PayloadHash string
	// ClientLoc, when set, applies geographic network latency; nil means
	// an intra-cloud call.
	ClientLoc *geo.Coord
}

// Response is the outcome of an invocation.
type Response struct {
	// Err is nil on success; ErrThrottled / ErrSaturated / ... otherwise.
	Err error
	// FI / Host / CPU identify where the request ran.
	FI   string
	Host string
	CPU  cpu.Kind
	// Cold reports a cold start.
	Cold bool
	// PayloadCached reports the dynamic-function cache already held the
	// request's payload hash.
	PayloadCached bool
	// Sent / Started / Ended are virtual timestamps (request issue, handler
	// start, handler end).
	Sent    time.Time
	Started time.Time
	Ended   time.Time
	// BilledMS is the billed duration; CostUSD the resulting charge.
	BilledMS float64
	CostUSD  float64
	// Profile is the SAAF report attached to successful responses.
	Profile saaf.Report
	// Value carries a behavior's result: a ProbeOutcome for a ProbeBehavior,
	// a FanOutBehavior's Result, nil otherwise.
	Value any
}

// OK reports success.
func (r Response) OK() bool { return r.Err == nil }

// invocation is one request's record from send to delivery. Every step of
// its life — arrive, process, start, finish, deliver, and a fan-out node's
// fanOut and gather — is a method. A record has at most one step pending at
// a time: step holds it as a method expression, and every Schedule or
// SendTo passes next, run bound once when the record was first made.
// Records come from a sync.Pool and go back, zeroed but for next, at their
// last use: in handOver after done, in Cloud.Invoke after it copies the
// response, and for a fan-out child at its parent once gathered. No closure
// may capture a record, since a recycled record is another request's; a
// warm invocation therefore allocates nothing.
type invocation struct {
	req Request
	// env is the caller's environment: the response is delivered (and
	// OnResponse observed) there.
	env *sim.Env
	// oneWay is the base network one-way latency drawn at send time; any
	// fault-injected extra RTT is applied on the zone's own shard.
	oneWay   time.Duration
	c        *Cloud
	az       *AZ
	dep      *Deployment
	fi       *FI
	behavior Behavior
	// The response goes to done; or Cloud.Invoke waits on ev and reads
	// resp; or, for a fan-out child, parent gathers resp.
	done func(Response)
	ev   *sim.Event
	// resp is filled in as the request goes: Sent at send, Cold and
	// PayloadCached at placement, Started at behavior start, a fan-out
	// node's Value at its last gather, the rest at finish.
	resp Response

	next func()
	step func(*invocation)

	// Fan-out links. A child points at its parent and its next sibling;
	// a parent at the next child it gathers, the count gathered so far,
	// and whether it is blocked on that child. answered marks a child
	// that has handed over.
	parent, sib, kid *invocation
	gathered         int
	waiting          bool
	answered         bool
}

// records recycles invocation records across requests, clouds and shards.
// Unlike a plain free list it hands memory back to the GC after a burst,
// and it is safe across a sharded engine's worker goroutines.
var records sync.Pool

// record returns a fresh record of req sent from env now.
func (c *Cloud) record(from *sim.Env, req Request) *invocation {
	inv, _ := records.Get().(*invocation)
	if inv == nil {
		inv = new(invocation)
		inv.next = inv.run
	}
	inv.req, inv.env, inv.c = req, from, c
	inv.resp.Sent = from.Now()
	return inv
}

// recycle zeroes the record at its last use and returns it to the pool.
// Zeroing here rather than at reuse makes a late reader of a finished
// request see an empty record at once instead of a plausible stale one.
func (inv *invocation) recycle() {
	*inv = invocation{next: inv.next}
	records.Put(inv)
}

// then schedules step s of the record on env after d.
func (inv *invocation) then(env *sim.Env, d time.Duration, s func(*invocation)) {
	inv.step = s
	env.Schedule(d, inv.next)
}

// run is the record's one continuation: it runs the pending step.
func (inv *invocation) run() { inv.step(inv) }

// Invoke performs a blocking invocation from a client process.
func (c *Cloud) Invoke(p *sim.Proc, req Request) Response {
	ev := sim.NewEvent(p.Env())
	inv := c.record(p.Env(), req)
	inv.ev = ev
	inv.send()
	p.Wait(ev)
	resp := inv.resp
	inv.recycle()
	return resp
}

// StartInvoke performs an asynchronous invocation from the cloud's control
// environment; done runs when the response arrives back at the caller
// (network latency included both ways).
func (c *Cloud) StartInvoke(req Request, done func(Response)) {
	c.StartInvokeFrom(c.env, req, done)
}

// StartInvokeFrom is StartInvoke for a caller living on a specific shard:
// the request crosses from the caller's env to the zone's shard under the
// network latency, and the response is delivered back on from.
func (c *Cloud) StartInvokeFrom(from *sim.Env, req Request, done func(Response)) {
	inv := c.record(from, req)
	inv.done = done
	inv.send()
}

// send puts a new record on the wire from its caller's env.
func (inv *invocation) send() {
	c, from := inv.c, inv.env
	az, ok := c.azBy[inv.req.AZ]
	if !ok {
		// No such zone: bounce at the provider edge after an intra-cloud
		// round trip, entirely on the caller's shard.
		inv.oneWay = c.opts.IntraCloudRTT / 2
		inv.then(from, inv.oneWay, (*invocation).bounce)
		return
	}
	inv.az = az
	inv.oneWay = c.baseOneWay(from, &inv.req, az)
	inv.step = (*invocation).arrive
	from.SendTo(az.env, inv.oneWay, inv.next)
}

// bounce answers a request for an unknown zone at the provider edge.
func (inv *invocation) bounce() {
	inv.resp.Err = fmt.Errorf("%w: AZ %q", ErrNoSuchDeployment, inv.req.AZ)
	if inv.c.opts.OnResponse != nil {
		inv.c.opts.OnResponse(inv.req, inv.resp)
	}
	inv.then(inv.env, inv.oneWay, (*invocation).handOver)
}

// baseOneWay is the fault-free one-way network latency from the caller to
// the zone. Jitter draws come from the caller shard's own stream.
func (c *Cloud) baseOneWay(from *sim.Env, req *Request, az *AZ) time.Duration {
	if req.ClientLoc == nil {
		return c.opts.IntraCloudRTT / 2
	}
	latRand := c.latRands[from.Shard()]
	return c.opts.Latency.RTT(*req.ClientLoc, az.region.spec.Loc, latRand) / 2
}

// respond ships the response back to the caller's shard. The zone's current
// fault-injected extra RTT is added to the return leg; OnResponse observes
// the response at delivery, on the caller's shard, so observation order is
// the caller's deterministic event order.
func (inv *invocation) respond() {
	back := inv.oneWay + inv.az.fault.extraRTT/2
	inv.step = (*invocation).deliver
	inv.az.env.SendTo(inv.env, back, inv.next)
}

// reject answers a request that will not run with err.
func (inv *invocation) reject(err error) {
	inv.resp.Err = err
	inv.respond()
}

// deliver runs on the caller's shard when the response arrives.
func (inv *invocation) deliver() {
	if inv.c.opts.OnResponse != nil {
		inv.c.opts.OnResponse(inv.req, inv.resp)
	}
	inv.handOver()
}

// handOver gives the response to whoever waits for it. A fan-out child
// wakes its parent, at this instant, only if the parent is blocked on it —
// where a process waiting on the child's event would have been woken.
func (inv *invocation) handOver() {
	switch parent := inv.parent; {
	case parent != nil:
		inv.answered = true
		if parent.waiting && parent.kid == inv {
			parent.waiting = false
			parent.then(parent.az.env, 0, (*invocation).gather)
		}
	case inv.ev != nil:
		inv.ev.Trigger(nil)
	default:
		inv.done(inv.resp)
		inv.recycle()
	}
}

// arrive runs on the zone's shard when the request reaches the region edge.
// Fault-injected extra RTT delays processing here — on the zone's side —
// so the fault state is only ever read by its owning shard.
func (inv *invocation) arrive() {
	if extra := inv.az.fault.extraRTT / 2; extra > 0 {
		inv.then(inv.az.env, extra, (*invocation).process)
		return
	}
	inv.process()
}

func (inv *invocation) process() {
	c, az, req := inv.c, inv.az, &inv.req
	az.m.invocations.Inc()
	if err := az.rejectChaos(); err != nil {
		inv.reject(err)
		return
	}
	dep, ok := az.deployments[req.Function]
	if !ok {
		az.m.failBadReq.Inc()
		inv.reject(fmt.Errorf("%w: %s/%s", ErrNoSuchDeployment, req.AZ, req.Function))
		return
	}
	behavior := dep.behavior
	if req.Work != nil {
		if !dep.dynamic {
			az.m.failBadReq.Inc()
			inv.reject(fmt.Errorf("%w: work override on non-dynamic deployment", ErrBadRequest))
			return
		}
		behavior = req.Work
	}
	if behavior == nil {
		az.m.failBadReq.Inc()
		inv.reject(fmt.Errorf("%w: deployment has no behavior", ErrBadRequest))
		return
	}

	if az.region.inflight[req.Account] >= c.opts.Quota {
		az.m.failThrottled.Inc()
		inv.reject(ErrThrottled)
		return
	}
	fi, cold, err := az.acquireFI(dep)
	if err != nil {
		az.m.failSaturated.Inc()
		inv.reject(err)
		return
	}
	if cold {
		az.m.coldStarts.Inc()
	}
	az.region.inflight[req.Account]++
	inv.dep, inv.fi, inv.behavior, inv.resp.Cold = dep, fi, behavior, cold

	initDelay := time.Duration(c.opts.OverheadMS * float64(time.Millisecond) / 2)
	if cold {
		ms := az.rand.LogNorm(0, c.opts.ColdStartSigma) * c.opts.ColdStartMS * az.fault.coldStartFactor()
		// Init runs on the CPU share the memory setting grants, so
		// low-memory deployments cold-start slower (this is why Fig. 3's
		// smaller memory settings need longer sleeps for full coverage).
		ms *= initMemoryFactor(dep.memoryMB)
		az.m.coldStartMS.Observe(ms)
		initDelay += time.Duration(ms * float64(time.Millisecond))
	}

	if req.PayloadHash != "" {
		inv.resp.PayloadCached = fi.cache != nil && hasHash(fi.cache, req.PayloadHash)
		if !inv.resp.PayloadCached {
			if fi.cache == nil {
				fi.cache = make(map[string]struct{})
			}
			fi.cache[req.PayloadHash] = struct{}{}
		}
	}
	inv.then(az.env, initDelay, (*invocation).start)
}

// start runs the behavior once the instance is initialized.
func (inv *invocation) start() {
	c, az, dep := inv.c, inv.az, inv.dep
	inv.resp.Started = az.env.Now()
	switch b := inv.behavior.(type) {
	case SleepBehavior:
		inv.then(az.env, b.D, (*invocation).finish)
	case WorkBehavior:
		dur := c.modelRuntime(az, dep, inv.fi.host, b)
		inv.then(az.env, dur, (*invocation).finish)
	case ProbeBehavior:
		if inv.runProbe(b) {
			return // declined: probe path owns response and release
		}
		dur := c.modelRuntime(az, dep, inv.fi.host, b.Work)
		extra := time.Duration(probeDecisionMS * float64(time.Millisecond))
		inv.resp.Value = ProbeOutcome{Ran: true, RuntimeMS: float64(dur) / float64(time.Millisecond)}
		inv.then(az.env, dur+extra, (*invocation).finish)
	case FanOutBehavior:
		// The node starts at this instant, via the queue, where starting a
		// process would have put it.
		inv.then(az.env, 0, (*invocation).fanOut)
	default:
		inv.resp.Err = fmt.Errorf("%w: unknown behavior %T", ErrBadRequest, inv.behavior)
		inv.finish()
	}
}

// fanOut sends a fan-out node's children from its zone, in order, linking
// each to the node, and holds the instance for the node's Hold.
func (inv *invocation) fanOut() {
	b := inv.behavior.(FanOutBehavior)
	env, link := inv.az.env, &inv.kid
	for i := 0; i < b.N; i++ {
		req := b.Child(i)
		req.Account = inv.req.Account
		kid := inv.c.record(env, req)
		kid.parent, *link, link = inv, kid, &kid.sib
		kid.send()
	}
	inv.then(env, b.Hold, (*invocation).gather)
}

// gather runs when a fan-out node's hold ends and whenever the child it is
// blocked on hands over. It gathers the answered children in child order,
// recycling each, blocks on the first child still out, and finishes the
// node after the last.
func (inv *invocation) gather() {
	b := inv.behavior.(FanOutBehavior)
	for kid := inv.kid; kid != nil; kid = inv.kid {
		if !kid.answered {
			inv.waiting = true
			return
		}
		b.Gather(inv.gathered, &kid.resp)
		inv.kid, inv.gathered = kid.sib, inv.gathered+1
		kid.recycle()
	}
	inv.resp.Value = b.Result()
	inv.finish()
}

// finish bills the run, returns the instance to the warm pool and responds.
func (inv *invocation) finish() {
	c, az, dep, fi, r := inv.c, inv.az, inv.dep, inv.fi, &inv.resp
	r.Ended = az.env.Now()
	billedMS := float64(r.Ended.Sub(r.Started)) / float64(time.Millisecond)
	billedMS += c.opts.OverheadMS
	price := c.prices[az.region.spec.Provider]
	cost := price.Cost(dep.memoryMB, billedMS)
	c.meter.ChargeIn(inv.req.Account, az.region.spec.Name, cost)
	az.region.inflight[inv.req.Account]--
	az.releaseFI(fi)

	profile, perr := saaf.Collect(cpu.CPUInfo(fi.host.kind, dep.vcpus()), fi.id, fi.host.ID(), r.Cold, billedMS)
	if r.Err == nil && perr != nil {
		r.Err = perr
	}
	if r.Err != nil {
		az.m.failHandler.Inc()
	} else {
		az.m.billedMS.Observe(billedMS)
	}
	r.FI, r.Host, r.CPU = fi.id, fi.host.ID(), profile.Kind
	r.BilledMS, r.CostUSD, r.Profile = billedMS, cost, profile
	inv.respond()
}

func hasHash(set map[string]struct{}, h string) bool {
	_, ok := set[h]
	return ok
}

// initMemoryFactor scales cold-start time by the CPU share a memory setting
// grants: a 512 MB deployment initializes ~2x slower than a 2 GB one.
func initMemoryFactor(memoryMB int) float64 {
	if memoryMB <= 0 {
		return 1
	}
	f := math.Sqrt(2048 / float64(memoryMB))
	if f < 0.7 {
		return 0.7
	}
	if f > 2.5 {
		return 2.5
	}
	return f
}

// modelRuntime computes the simulated duration of workload w on host under
// the deployment's memory setting and the zone's current contention.
func (c *Cloud) modelRuntime(az *AZ, dep *Deployment, host *Host, w WorkBehavior) time.Duration {
	spec, ok := workload.Get(w.Workload)
	if !ok {
		return time.Millisecond
	}
	ms := spec.BaseMS * w.scale()
	ms *= spec.CPUFactor(host.kind)
	ms *= spec.MemoryFactor(dep.memoryMB)
	ms *= az.contention(az.env.Now())
	ms *= az.rand.LogNorm(0, spec.NoiseFrac)
	ms += w.ExtraMS
	if ms < 0.1 {
		ms = 0.1
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// Inflight reports an account's current concurrent executions in a region
// (exposed for tests).
func (c *Cloud) Inflight(account, region string) int {
	r, ok := c.regionBy[region]
	if !ok {
		return 0
	}
	return r.inflight[account]
}
