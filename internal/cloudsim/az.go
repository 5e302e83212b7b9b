package cloudsim

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/rng"
)

// Host is one provisioned machine (a bare-metal instance hosting microVMs).
// Every function instance placed on a host observes the host's CPU.
type Host struct {
	zone  string
	seq   int
	id    string // "vm-<zone>-<seq>", built when first asked for
	kind  cpu.Kind
	arch  cpu.Arch
	slots int // FI capacity
	used  int // live FIs
}

// ID returns the platform-assigned host identifier a guest can observe. A
// world holds thousands of hosts and a run lands on few of them, so the
// string is built on first use; like all zone state it is only touched from
// the cloud's event loop.
func (h *Host) ID() string {
	if h.id == "" {
		h.id = "vm-" + h.zone + "-" + strconv.Itoa(h.seq)
	}
	return h.id
}

// Kind returns the host's processor kind. Only the saaf path and tests may
// consult this; samplers must infer it from cpuinfo.
func (h *Host) Kind() cpu.Kind { return h.kind }

// FI is a function instance: an execution environment bound to one
// deployment, persisting for the keep-alive window after its last use. It
// stores its number, not its name (ID formats that on each call), which
// keeps the struct in the 64-byte size class: a saturated zone holds tens
// of thousands of instances.
type FI struct {
	num       int // the instance's number in its zone
	host      *Host
	dep       *Deployment
	busy      bool
	destroyed bool
	// idleSeq is the seq of the keep-alive timer the last release armed:
	// the timers that were armed before it are void (see timerStale).
	idleSeq uint64
	// prev and next link an idle instance into its deployment's idle list.
	prev, next *FI
	// cache holds dynamic-function payload hashes already decoded on this
	// instance (§3.2's per-FI payload cache).
	cache map[string]struct{}
}

// AppendInstanceID appends the name of instance num of zone to dst:
// "fi-<zone>-<num>", the identifier a guest reads (SAAF's uuid). It is the
// one place the name is spelled; nothing on the invocation path builds it.
func AppendInstanceID(dst []byte, zone string, num int) []byte {
	dst = append(dst, "fi-"...)
	dst = append(dst, zone...)
	dst = append(dst, '-')
	return strconv.AppendInt(dst, int64(num), 10)
}

// ID returns the instance identifier (SAAF's uuid), formatted on each
// call: no production path asks for it, and caching it would cost every
// instance a string header.
func (f *FI) ID() string { return string(AppendInstanceID(nil, f.dep.az.spec.Name, f.num)) }

// Host returns the backing host.
func (f *FI) Host() *Host { return f.host }

// Deployment is one function deployed to one availability zone.
type Deployment struct {
	az       *AZ
	name     string
	memoryMB int
	arch     cpu.Arch
	behavior Behavior
	dynamic  bool
	codeHash string
	// idleHead..idleTail lists the idle instances in the order they went
	// idle; reuse takes the tail, LIFO like real platforms. An instance is
	// on the list exactly while it is neither busy nor destroyed, so idle
	// counts it.
	idleHead, idleTail *FI
	idle               int
	// floor is the warm-pool floor: keep-alive expiry holds this many idle
	// instances alive instead of reaping them (see expire). Set via
	// AZ.SetWarmFloor; 0 restores pure keep-alive semantics.
	floor int
	// floorAccount / floorSince track who pays for floor-held capacity and
	// since when. StartEnsureWarm settles the accrued hold charge on every
	// actuation (see settleWarmHold); a floor set directly via SetWarmFloor
	// with no ensure-warm actuation is never billed.
	floorAccount string
	floorSince   time.Time
	// live counts this deployment's provisioned instances (busy, idle, and
	// initializing) so the warm-pool sizer can compute provisioning deficits
	// without scanning hosts.
	live int
}

// pushIdle appends an instance that has just gone idle to the idle list.
func (d *Deployment) pushIdle(fi *FI) {
	fi.prev, fi.next = d.idleTail, nil
	if d.idleTail != nil {
		d.idleTail.next = fi
	} else {
		d.idleHead = fi
	}
	d.idleTail = fi
	d.idle++
}

// unlinkIdle takes an idle instance off the idle list.
func (d *Deployment) unlinkIdle(fi *FI) {
	if fi.prev != nil {
		fi.prev.next = fi.next
	} else {
		d.idleHead = fi.next
	}
	if fi.next != nil {
		fi.next.prev = fi.prev
	} else {
		d.idleTail = fi.prev
	}
	fi.prev, fi.next = nil, nil
	d.idle--
}

// Name returns the function name (unique within its AZ).
func (d *Deployment) Name() string { return d.name }

// MemoryMB returns the deployment's memory setting.
func (d *Deployment) MemoryMB() int { return d.memoryMB }

// AZName returns the owning availability zone's name.
func (d *Deployment) AZName() string { return d.az.spec.Name }

// vcpus returns the vCPUs the platform grants this memory setting.
func (d *Deployment) vcpus() int {
	v := int(math.Round(float64(d.memoryMB) / 1769))
	if v < 1 {
		return 1
	}
	if v > 6 {
		return 6
	}
	return v
}

// AZ is the live state of one availability zone: a finite, slowly drifting
// pool of heterogeneous hosts.
//
// A world holds dozens of zones and a run touches few of them, so a zone
// draws its hosts on first use (ensure), not at construction. Everything
// that reads the hosts, the target mix or the zone's stream calls ensure
// first; DESIGN.md §11 gives the argument that the zone it builds is the
// one an eager build would hold at that instant.
type AZ struct {
	cloud       *Cloud
	region      *Region
	spec        AZSpec
	rand        *rng.Stream
	hosts       []*Host
	armHosts    []*Host
	hostSlab    []Host // day-0 hosts are carved from one allocation per zone
	deployments map[string]*Deployment
	targetMix   map[cpu.Kind]float64
	baseMix     map[cpu.Kind]float64 // day-0 mix, anchor for mean reversion
	baseHosts   int                  // day-0 x86 host count, anchor for capacity jitter
	liveFIs     int
	hostSeq     int
	fiSeq       int
	// built reports the hosts drawn; until then driftDaily only counts the
	// days it fired in pendingDays, and build replays them.
	built       bool
	pendingDays int
	scaleUpUsed bool
	fault       faultState
	m           azMetrics
}

func newAZ(c *Cloud, region *Region, spec AZSpec) *AZ {
	mix := normalizeMix(spec.Mix)
	az := &AZ{
		cloud:       c,
		region:      region,
		spec:        spec,
		rand:        c.root.Split("az/" + spec.Name),
		deployments: make(map[string]*Deployment),
		// The target starts as the day-0 mix; a walk replaces the map and
		// never writes into it, so the two can share it until then.
		targetMix: mix,
		baseMix:   mix,
		m:         newAZMetrics(c.opts.Metrics, spec.Name),
	}
	// An hourly excursion schedules its own restore, and where that event
	// sits in the queue depends on when the excursion fired: such a zone
	// is built now, so its hourly drift runs live.
	if spec.HourlyDrift > 0 {
		az.ensure()
	}
	return az
}

// ensure draws the zone's hosts if nothing has yet: it stays small enough
// to inline into the placement path.
func (az *AZ) ensure() {
	if !az.built {
		az.build()
	}
}

// build draws the zone's hosts on its first use, exactly as a build at
// construction would have, and then replays, in order, the daily drift
// steps that fired before. A zone's drift reads only its own stream, target
// mix and hosts, and every host is idle until the first use, so the replay
// makes the draws the live steps would have made.
func (az *AZ) build() {
	az.built = true
	spec := az.spec
	hostFIs := spec.hostFIs()
	n := spec.PoolFIs / hostFIs
	if n < 1 {
		n = 1
	}
	az.baseHosts = n
	arm := spec.ArmPoolFIs / hostFIs
	az.hostSlab = make([]Host, n+arm)
	az.hosts = make([]*Host, 0, n)
	az.armHosts = make([]*Host, 0, arm)
	draw := az.kindDrawer(az.targetMix)
	for i := 0; i < n; i++ {
		az.addHost(draw(), cpu.X86, hostFIs)
	}
	for i := 0; i < arm; i++ {
		az.addHost(cpu.Graviton, cpu.ARM, hostFIs)
	}
	for ; az.pendingDays > 0; az.pendingDays-- {
		az.drift()
	}
}

func (s AZSpec) hostFIs() int {
	if s.HostFIs > 0 {
		return s.HostFIs
	}
	return 128
}

// Name returns the zone name, e.g. "us-west-1a".
func (az *AZ) Name() string { return az.spec.Name }

// Region returns the owning region.
func (az *AZ) Region() *Region { return az.region }

// Spec returns the zone's static specification.
func (az *AZ) Spec() AZSpec { return az.spec }

// CapacityFIs returns the total x86 FI slots currently provisioned. Only
// tests read it, among them internal/sampler's saturation test, which is
// why it is exported rather than kept in export_test.go.
func (az *AZ) CapacityFIs() int {
	az.ensure()
	total := 0
	for _, h := range az.hosts {
		total += h.slots
	}
	return total
}

// TrueMix returns the ground-truth slot-weighted CPU distribution of the
// zone's x86 pool. It exists so experiments can score characterization
// error; sampling code must never call it.
func (az *AZ) TrueMix() map[cpu.Kind]float64 {
	az.ensure()
	counts := make(map[cpu.Kind]float64)
	total := 0.0
	for _, h := range az.hosts {
		counts[h.kind] += float64(h.slots)
		total += float64(h.slots)
	}
	if total == 0 {
		return counts
	}
	for k := range counts {
		counts[k] /= total
	}
	return counts
}

func (az *AZ) addHost(kind cpu.Kind, arch cpu.Arch, slots int) *Host {
	az.hostSeq++
	var h *Host
	if len(az.hostSlab) > 0 {
		h, az.hostSlab = &az.hostSlab[0], az.hostSlab[1:]
	} else {
		h = new(Host)
	}
	*h = Host{zone: az.spec.Name, seq: az.hostSeq, kind: kind, arch: arch, slots: slots}
	if arch == cpu.ARM {
		az.armHosts = append(az.armHosts, h)
	} else {
		az.hosts = append(az.hosts, h)
	}
	return h
}

// kindDrawer flattens mix once and returns a function that draws host
// kinds from it off the zone's rng stream, one draw per call. A zone is
// built from thousands of draws on one mix, so the flattening must not be
// paid per host.
func (az *AZ) kindDrawer(mix map[cpu.Kind]float64) func() cpu.Kind {
	kinds, weights := mixSlices(mix)
	return func() cpu.Kind {
		if len(kinds) == 0 {
			return cpu.Xeon25
		}
		return kinds[az.rand.WeightedChoice(weights)]
	}
}

// deploy registers a function in this zone.
func (az *AZ) deploy(name string, cfg DeployConfig) (*Deployment, error) {
	if _, exists := az.deployments[name]; exists {
		return nil, fmt.Errorf("%w: %q in %s", ErrDeploymentExists, name, az.spec.Name)
	}
	if cfg.MemoryMB <= 0 {
		return nil, fmt.Errorf("%w: deployment %q: non-positive memory", ErrBadRequest, name)
	}
	arch := cfg.Arch
	if arch == 0 {
		arch = cpu.X86
	}
	d := &Deployment{
		az:       az,
		name:     name,
		memoryMB: cfg.MemoryMB,
		arch:     arch,
		behavior: cfg.Behavior,
		dynamic:  cfg.Dynamic,
		codeHash: cfg.CodeHash,
	}
	az.deployments[name] = d
	return d, nil
}

// acquireFI returns an instance to run one request on, reusing a warm
// instance when available and otherwise placing a new one.
func (az *AZ) acquireFI(dep *Deployment) (*FI, bool, error) {
	// LIFO reuse: most recently released first, like real platforms.
	if fi := dep.idleTail; fi != nil {
		dep.unlinkIdle(fi)
		fi.busy = true
		return fi, false, nil
	}
	host := az.placeHost(dep.arch)
	if host == nil {
		az.m.saturation.Inc()
		az.maybeScaleUp()
		return nil, false, ErrSaturated
	}
	fi := az.provisionFI(dep, host)
	return fi, true, nil
}

// provisionFI creates a new busy instance on host and updates the zone's and
// deployment's live accounting. Shared by the cold-start path and PreWarm.
func (az *AZ) provisionFI(dep *Deployment, host *Host) *FI {
	host.used++
	az.liveFIs++
	dep.live++
	az.m.liveFIs.Set(float64(az.liveFIs))
	az.fiSeq++
	return &FI{
		num:  az.fiSeq,
		host: host,
		dep:  dep,
		busy: true,
	}
}

// placeHost picks the host for a new instance with power-of-k-choices
// packing: sample k random hosts with free capacity and take the most
// occupied. Platforms bin-pack microVMs for utilization, but only
// statistically — this policy clusters a poll's instances onto a subset of
// hosts (which is why single polls misestimate a zone's mix, Fig. 5) while
// still letting a retried request escape a host whose CPU was banned.
func (az *AZ) placeHost(arch cpu.Arch) *Host {
	az.ensure()
	pool := az.hosts
	if arch == cpu.ARM {
		pool = az.armHosts
	}
	if len(pool) == 0 {
		return nil
	}
	const k = 4
	var best *Host
	found := 0
	for tries := 0; tries < 6*k && found < k; tries++ {
		h := pool[az.rand.Intn(len(pool))]
		if h.used >= h.slots {
			continue
		}
		found++
		if best == nil || h.used > best.used {
			best = h
		}
	}
	if best != nil {
		return best
	}
	// Near saturation random probes miss; fall back to a full scan.
	for _, h := range pool {
		if h.used < h.slots {
			return h
		}
	}
	return nil
}

// releaseFI returns an instance to the warm pool and arms its keep-alive
// expiry.
func (az *AZ) releaseFI(fi *FI) {
	if fi.destroyed {
		return
	}
	az.idle(fi)
}

// idle makes a busy instance idle: it arms its keep-alive expiry, whose
// seq becomes the instance's idleSeq, and joins its deployment's idle list.
// The timer is armed while the instance still reads busy, so a compaction
// inside the push finds the instance's older timers void, as it does once
// idleSeq has moved.
func (az *AZ) idle(fi *FI) {
	fi.idleSeq = az.cloud.keepAlive().Push(fi)
	fi.busy = false
	fi.dep.pushIdle(fi)
}

// timerStale reports the keep-alive timer of fi with the given seq void:
// the instance was destroyed, is busy, or was released again after the
// timer was armed, which armed a later timer. It stays void, which is what
// the cloud's keep-alive lane needs to drop it unfired: idleSeq only grows,
// and a busy instance goes idle again only by arming a timer later than
// every one it had. A SetWarmFloor re-arm leaves idleSeq alone, so the
// timer it adds and the one the instance had are both live.
func timerStale(fi *FI, seq uint64) bool {
	return fi.destroyed || fi.busy || seq < fi.idleSeq
}

// expire reaps an instance whose keep-alive ran out; the lane has already
// dropped the timer if it went stale. An instance held by the deployment's
// warm-pool floor is left alive *without* re-arming — it becomes
// timerless, so a drained event queue can terminate; SetWarmFloor re-arms
// every idle instance when the floor changes, which is what eventually
// reaps the excess after a floor is lowered.
func (az *AZ) expire(fi *FI) {
	if fi.dep.floor > 0 && fi.dep.idle <= fi.dep.floor {
		return
	}
	az.destroyFI(fi)
}

// destroyFI tears an instance down: an idle one (keep-alive expiry) leaves
// its idle list, a busy one (a probe's decline) was on none.
func (az *AZ) destroyFI(fi *FI) {
	if fi.destroyed {
		return
	}
	if !fi.busy {
		fi.dep.unlinkIdle(fi)
	}
	fi.destroyed = true
	fi.host.used--
	az.liveFIs--
	fi.dep.live--
	az.m.liveFIs.Set(float64(az.liveFIs))
}

// contention returns the diurnal load factor at t: 1 at the quietest hour,
// 1+ContentionAmp at the zone's peak hour ("the Night Shift" effect).
func (az *AZ) contention(t time.Time) float64 {
	if az.spec.ContentionAmp == 0 {
		return 1
	}
	h := float64(t.UTC().Hour()) + float64(t.UTC().Minute())/60
	phase := 2 * math.Pi * (h - float64(az.spec.PeakHourUTC)) / 24
	return 1 + az.spec.ContentionAmp*(0.5+0.5*math.Cos(phase))
}

// driftDaily reprovisions the pool for a new day: the target mix takes a
// random-walk step, a volatility-dependent fraction of idle hosts is
// replaced with hosts drawn from the new target, and total capacity
// jitters. Stable zones (sa-east-1a, eu-north-1a) barely move; volatile
// zones (ca-central-1a, us-west-1*) can shift 20-50% in a day (§4.4). A
// zone whose hosts are not drawn yet only counts the day (see ensure).
func (az *AZ) driftDaily() {
	if !az.built {
		az.pendingDays++
		return
	}
	az.drift()
}

// drift is one day's step of driftDaily on a built zone.
func (az *AZ) drift() {
	az.scaleUpUsed = false
	if az.spec.MixWalk > 0 {
		az.walkTargetMix(az.spec.MixWalk)
	}
	if az.spec.DailyDrift > 0 {
		frac := az.spec.DailyDrift * (0.5 + az.rand.Float64())
		az.replaceIdleHosts(frac)
	}
	if az.spec.CapJitter > 0 {
		az.jitterCapacity()
	}
}

// driftHourly applies intra-day churn for zones with hourly volatility
// (us-west-1b in the paper's Fig. 8): small continuous replacement with
// occasional large excursions. Excursions draw from a transient perturbed
// mix and do not move the zone's target, so the zone snaps back within
// hours — matching Fig. 8's 22-of-24 hours near the baseline.
func (az *AZ) driftHourly() {
	if az.spec.HourlyDrift <= 0 {
		return
	}
	if az.rand.Bool(0.08) {
		az.excursion()
		return
	}
	az.replaceIdleHosts(az.spec.HourlyDrift)
}

// excursion swaps a sizeable chunk of the pool to a perturbed mix for
// roughly an hour, then restores the swapped hosts — the short-lived
// capacity reshuffles behind Fig. 8's isolated bad hours.
func (az *AZ) excursion() {
	perturbed := walkMix(az.rand, az.targetMix, 3*az.spec.MixWalk)
	type swap struct {
		host *Host
		kind cpu.Kind
	}
	var swapped []swap
	draw := az.kindDrawer(perturbed)
	for _, h := range az.hosts {
		if h.used == 0 && az.rand.Bool(0.35) {
			swapped = append(swapped, swap{host: h, kind: h.kind})
			h.kind = draw()
		}
	}
	az.cloud.env.Schedule(55*time.Minute, func() {
		for _, s := range swapped {
			if s.host.used == 0 {
				s.host.kind = s.kind
			}
		}
	})
}

// walkTargetMix takes a mean-reverting random-walk step: shares are
// perturbed log-normally, then pulled back toward the day-0 mix. Reversion
// keeps volatile zones fluctuating (the paper's 20-50% day-over-day APE)
// without collapsing onto a single CPU type over long horizons.
func (az *AZ) walkTargetMix(step float64) {
	walked := walkMix(az.rand, az.targetMix, step)
	const reversion = 0.15
	next := make(map[cpu.Kind]float64, len(az.baseMix))
	for _, k := range cpu.Kinds() { // stable order: map iteration would
		base, ok := az.baseMix[k] // randomize float rounding per process
		if !ok {
			continue
		}
		next[k] = (1-reversion)*walked[k] + reversion*base
	}
	az.targetMix = normalizeMix(next)
}

// walkMix perturbs each share log-normally. Iteration follows the catalog
// order, never Go's randomized map order: each share must receive the same
// RNG draw on every run for replays to be bit-identical.
func walkMix(rand *rng.Stream, mix map[cpu.Kind]float64, step float64) map[cpu.Kind]float64 {
	next := make(map[cpu.Kind]float64, len(mix))
	for _, k := range cpu.Kinds() {
		share, ok := mix[k]
		if !ok {
			continue
		}
		next[k] = share * rand.LogNorm(0, step)
	}
	return normalizeMix(next)
}

func (az *AZ) replaceIdleHosts(frac float64) {
	az.replaceIdleHostsFrom(frac, az.targetMix)
}

func (az *AZ) replaceIdleHostsFrom(frac float64, mix map[cpu.Kind]float64) {
	if frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	draw := az.kindDrawer(mix)
	for _, h := range az.hosts {
		if h.used == 0 && az.rand.Bool(frac) {
			h.kind = draw()
		}
	}
}

func (az *AZ) jitterCapacity() {
	target := int(az.rand.Jitter(float64(az.baseHosts), az.spec.CapJitter))
	if target < 1 {
		target = 1
	}
	hostFIs := az.spec.hostFIs()
	draw := az.kindDrawer(az.targetMix)
	for len(az.hosts) < target {
		az.addHost(draw(), cpu.X86, hostFIs)
	}
	// Shrink by removing empty hosts only.
	for i := len(az.hosts) - 1; i >= 0 && len(az.hosts) > target; i-- {
		if az.hosts[i].used == 0 {
			az.hosts = append(az.hosts[:i], az.hosts[i+1:]...)
		}
	}
}

// maybeScaleUp models the platform slowly reacting to saturation: once per
// day, a zone with a reserve pool brings additional hosts online shortly
// after capacity is exhausted. Zones whose reserve mix differs from their
// target mix are the ones EX-3 saw "anomalous spikes" from — the late
// hosts reveal previously unseen hardware.
func (az *AZ) maybeScaleUp() {
	if az.scaleUpUsed || az.spec.ReserveFrac <= 0 {
		return
	}
	az.scaleUpUsed = true
	mix := az.targetMix
	if len(az.spec.ReserveMix) > 0 {
		mix = normalizeMix(az.spec.ReserveMix)
	}
	count := int(float64(az.baseHosts) * az.spec.ReserveFrac)
	if count < 1 {
		count = 1
	}
	hostFIs := az.spec.hostFIs()
	az.cloud.env.Schedule(scaleUpDelay, func() {
		draw := az.kindDrawer(mix)
		for i := 0; i < count; i++ {
			az.addHost(draw(), cpu.X86, hostFIs)
		}
	})
}

// normalizeMix returns mix scaled to sum to 1, dropping non-positive
// entries. Summation follows the catalog order so floating-point rounding
// is identical on every run.
func normalizeMix(mix map[cpu.Kind]float64) map[cpu.Kind]float64 {
	out := make(map[cpu.Kind]float64, len(mix))
	var total float64
	for _, k := range cpu.Kinds() {
		if v := mix[k]; v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return out
	}
	for _, k := range cpu.Kinds() {
		if v := mix[k]; v > 0 {
			out[k] = v / total
		}
	}
	return out
}

// mixSlices flattens a mix into parallel slices with a deterministic order.
func mixSlices(mix map[cpu.Kind]float64) ([]cpu.Kind, []float64) {
	kinds := make([]cpu.Kind, 0, len(mix))
	for _, k := range cpu.Kinds() {
		if mix[k] > 0 {
			kinds = append(kinds, k)
		}
	}
	weights := make([]float64, len(kinds))
	for i, k := range kinds {
		weights[i] = mix[k]
	}
	return kinds, weights
}
