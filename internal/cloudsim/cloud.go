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
	// accounts holds each account's standing in the region.
	accounts map[string]*account
}

// account is one account's standing in one region: its concurrent
// executions, which the quota caps, and the meter cell its runs there are
// billed to. A request resolves it once, when its zone processes it.
type account struct {
	inflight int
	bill     *meterCell
}

// account returns name's standing in the zone's region, creating it on
// first use.
func (az *AZ) account(name string) *account {
	r := az.region
	a, ok := r.accounts[name]
	if !ok {
		a = &account{bill: az.cloud.meter.cell(name, r.spec.Name)}
		r.accounts[name] = a
	}
	return a
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

// Platform mechanics every simulated world shares; no caller varies them.
const (
	// coldStartMS / coldStartSigma parameterize the lognormal cold-start
	// initialization delay (unbilled, like managed-runtime init).
	coldStartMS    = 140
	coldStartSigma = 0.25
	// overheadMS is the fixed per-invocation platform overhead (billed).
	overheadMS = 1.5
	// scaleUpDelay is how long the platform takes to bring reserve hosts
	// online after saturation.
	scaleUpDelay = 25 * time.Second
)

// Options tune platform mechanics. The zero value is completed by defaults.
type Options struct {
	// KeepAlive is how long an idle instance persists (5 min on Lambda).
	KeepAlive time.Duration
	// Quota is the per-account, per-region concurrent execution limit.
	Quota int
	// IntraCloudRTT is every request's network round trip: callers sit
	// inside the cloud.
	IntraCloudRTT time.Duration
	// HorizonDays bounds the pre-scheduled drift timeline.
	HorizonDays int
	// OnResponse, when set, observes every response as it is delivered to
	// its caller — the platform-side tap for logging and tracing. It runs
	// inside the simulation and must not block.
	OnResponse func(Request, Response)
	// Metrics, when set, receives per-zone instrumentation (invocations,
	// cold starts, failures, saturation events, live instances, billed
	// latency). Nil disables instrumentation at zero cost.
	Metrics *metrics.Registry
}

// withDefaults returns o with every zero field replaced by its paper
// default.
func (o Options) withDefaults() Options {
	if o.KeepAlive == 0 {
		o.KeepAlive = 5 * time.Minute
	}
	if o.Quota == 0 {
		o.Quota = 1000
	}
	if o.IntraCloudRTT == 0 {
		o.IntraCloudRTT = 2 * time.Millisecond
	}
	if o.HorizonDays == 0 {
		o.HorizonDays = 30
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
	// expiry holds every zone's keep-alive timers: they all share the
	// cloud's delay, so one lane fires each where its own Schedule would
	// have, at the cost of one event-queue entry, and drops the ones a
	// reuse voided. It is made on the first arm (keepAlive), so building a
	// world allocates no lane.
	expiry *sim.Lane[*FI]
}

// keepAlive returns the cloud's keep-alive lane, making it on first use.
func (c *Cloud) keepAlive() *sim.Lane[*FI] {
	if c.expiry == nil {
		c.expiry = sim.NewLane(c.env, c.opts.KeepAlive,
			func(fi *FI) { fi.dep.az.expire(fi) }, timerStale)
	}
	return c.expiry
}

// New builds a cloud over env from the given catalog. A nil or empty
// catalog means the full 41-region default world. Every zone's events run
// on env.
func New(env *sim.Env, seed uint64, catalog []RegionSpec, opts Options) *Cloud {
	if len(catalog) == 0 {
		catalog = DefaultCatalog()
	}
	c := &Cloud{
		env:      env,
		root:     rng.New(seed).Split("cloud"),
		opts:     opts.withDefaults(),
		regionBy: make(map[string]*Region, len(catalog)),
		azBy:     make(map[string]*AZ),
		prices:   defaultPrices(),
		meter:    NewMeter(),
	}
	for _, rs := range catalog {
		region := &Region{
			spec:     rs,
			accounts: make(map[string]*account),
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

// scheduleDrift lays out the bounded drift timeline so Env.Run terminates.
func (c *Cloud) scheduleDrift() {
	for _, region := range c.regions {
		for _, az := range region.azs {
			// One method value per zone, not one per scheduled event.
			daily, hourly := az.driftDaily, az.driftHourly
			for day := 1; day <= c.opts.HorizonDays; day++ {
				c.env.Schedule(time.Duration(day)*24*time.Hour, daily)
			}
			if az.spec.HourlyDrift > 0 {
				hours := c.opts.HorizonDays * 24
				for h := 1; h <= hours; h++ {
					c.env.Schedule(time.Duration(h)*time.Hour, hourly)
				}
			}
		}
	}
}

// Env returns the environment the cloud runs on.
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
}

// Response is the outcome of an invocation.
type Response struct {
	// Err is nil on success; ErrThrottled / ErrSaturated / ... otherwise.
	Err error
	// Host / CPU identify where the request ran; Profile.Instance names
	// the instance (AppendInstanceID spells it).
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
// a time: step holds it as a method expression, and every Schedule passes
// next, run bound once when the record was first made.
// Records come from a sync.Pool and go back, zeroed but for next, at their
// last use: in handOver after done, and for a fan-out child at its parent
// once gathered. No closure
// may capture a record, since a recycled record is another request's; a
// warm invocation therefore allocates nothing.
type invocation struct {
	req      Request
	c        *Cloud
	az       *AZ
	acct     *account
	dep      *Deployment
	fi       *FI
	behavior Behavior
	// The response goes to done; or, for a fan-out child, parent gathers
	// resp.
	done func(Response)
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

// records recycles invocation records across requests and clouds. Unlike a
// plain free list it hands memory back to the GC after a burst, and it is
// safe across goroutines: parallel tests, and skyd beside the experiments in
// one process, share it.
var records sync.Pool

// record returns a fresh record of req sent now.
func (c *Cloud) record(req Request) *invocation {
	inv, _ := records.Get().(*invocation)
	if inv == nil {
		inv = new(invocation)
		inv.next = inv.run
	}
	inv.req, inv.c = req, c
	inv.resp.Sent = c.env.Now()
	return inv
}

// recycle zeroes the record at its last use and returns it to the pool.
// Zeroing here rather than at reuse makes a late reader of a finished
// request see an empty record at once instead of a plausible stale one.
func (inv *invocation) recycle() {
	*inv = invocation{next: inv.next}
	records.Put(inv)
}

// then schedules step s of the record after d.
func (inv *invocation) then(d time.Duration, s func(*invocation)) {
	inv.step = s
	inv.c.env.Schedule(d, inv.next)
}

// run is the record's one continuation: it runs the pending step.
func (inv *invocation) run() { inv.step(inv) }

// StartInvoke performs an asynchronous invocation; done runs when the
// response arrives back at the caller (network latency included both ways).
func (c *Cloud) StartInvoke(req Request, done func(Response)) {
	inv := c.record(req)
	inv.done = done
	inv.send()
}

// send puts a new record on the wire.
func (inv *invocation) send() {
	c := inv.c
	az, ok := c.azBy[inv.req.AZ]
	if !ok {
		// No such zone: bounce at the provider edge after an intra-cloud
		// round trip.
		inv.then(c.oneWay(), (*invocation).bounce)
		return
	}
	inv.az = az
	inv.then(c.oneWay(), (*invocation).arrive)
}

// bounce answers a request for an unknown zone at the provider edge.
func (inv *invocation) bounce() {
	inv.resp.Err = fmt.Errorf("%w: AZ %q", ErrNoSuchDeployment, inv.req.AZ)
	if inv.c.opts.OnResponse != nil {
		inv.c.opts.OnResponse(inv.req, inv.resp)
	}
	inv.then(inv.c.oneWay(), (*invocation).handOver)
}

// oneWay is the fault-free one-way network latency from a caller to any
// zone.
func (c *Cloud) oneWay() time.Duration { return c.opts.IntraCloudRTT / 2 }

// respond ships the response back to the caller. The zone's current
// fault-injected extra RTT is added to the return leg; OnResponse observes
// the response at delivery.
func (inv *invocation) respond() {
	inv.then(inv.c.oneWay()+inv.az.fault.extraRTT/2, (*invocation).deliver)
}

// reject answers a request that will not run with err.
func (inv *invocation) reject(err error) {
	inv.resp.Err = err
	inv.respond()
}

// deliver runs when the response arrives back at the caller.
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
	if parent := inv.parent; parent != nil {
		inv.answered = true
		if parent.waiting && parent.kid == inv {
			parent.waiting = false
			parent.then(0, (*invocation).gather)
		}
		return
	}
	inv.done(inv.resp)
	inv.recycle()
}

// arrive runs when the request reaches the region edge. Fault-injected
// extra RTT delays processing here, on the zone's side, so the fault state
// is read when the request arrives rather than when it was sent.
func (inv *invocation) arrive() {
	if extra := inv.az.fault.extraRTT / 2; extra > 0 {
		inv.then(extra, (*invocation).process)
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

	acct := az.account(req.Account)
	if acct.inflight >= c.opts.Quota {
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
	acct.inflight++
	inv.acct, inv.dep, inv.fi, inv.behavior, inv.resp.Cold = acct, dep, fi, behavior, cold

	initDelay := time.Duration(overheadMS * float64(time.Millisecond) / 2)
	if cold {
		ms := az.rand.LogNorm(0, coldStartSigma) * coldStartMS * az.fault.coldStartFactor()
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
	inv.then(initDelay, (*invocation).start)
}

// start runs the behavior once the instance is initialized.
func (inv *invocation) start() {
	c, az, dep := inv.c, inv.az, inv.dep
	inv.resp.Started = c.env.Now()
	switch b := inv.behavior.(type) {
	case SleepBehavior:
		inv.then(b.D, (*invocation).finish)
	case WorkBehavior:
		dur := c.modelRuntime(az, dep, inv.fi.host, b)
		inv.then(dur, (*invocation).finish)
	case ProbeBehavior:
		if inv.runProbe(b) {
			return // declined: probe path owns response and release
		}
		dur := c.modelRuntime(az, dep, inv.fi.host, b.Work)
		extra := time.Duration(probeDecisionMS * float64(time.Millisecond))
		inv.resp.Value = ProbeOutcome{Ran: true, RuntimeMS: float64(dur) / float64(time.Millisecond)}
		inv.then(dur+extra, (*invocation).finish)
	case FanOutBehavior:
		// The node starts at this instant, via the queue, where starting a
		// process would have put it.
		inv.then(0, (*invocation).fanOut)
	default:
		inv.resp.Err = fmt.Errorf("%w: unknown behavior %T", ErrBadRequest, inv.behavior)
		inv.finish()
	}
}

// fanOut sends a fan-out node's children from its zone, in order, linking
// each to the node, and holds the instance for the node's Hold.
func (inv *invocation) fanOut() {
	b := inv.behavior.(FanOutBehavior)
	link := &inv.kid
	for i, n := 0, b.Children(); i < n; i++ {
		req := b.Child(i)
		req.Account = inv.req.Account
		kid := inv.c.record(req)
		kid.parent, *link, link = inv, kid, &kid.sib
		kid.send()
	}
	inv.then(b.Hold(), (*invocation).gather)
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
	r.Ended = c.env.Now()
	billedMS := float64(r.Ended.Sub(r.Started)) / float64(time.Millisecond)
	billedMS += overheadMS
	price := c.prices[az.region.spec.Provider]
	cost := price.Cost(dep.memoryMB, billedMS)
	inv.acct.bill.charge(cost)
	inv.acct.inflight--
	az.releaseFI(fi)

	profile, perr := saaf.Collect(cpu.CPUInfo(fi.host.kind, dep.vcpus()), fi.num, fi.host.ID(), r.Cold, billedMS)
	if r.Err == nil && perr != nil {
		r.Err = perr
	}
	if r.Err != nil {
		az.m.failHandler.Inc()
	} else {
		az.m.billedMS.Observe(billedMS)
	}
	r.Host, r.CPU = fi.host.ID(), profile.Kind
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
	ms *= az.contention(c.env.Now())
	ms *= az.rand.LogNorm(0, spec.NoiseFrac)
	ms += w.ExtraMS
	if ms < 0.1 {
		ms = 0.1
	}
	return time.Duration(ms * float64(time.Millisecond))
}
