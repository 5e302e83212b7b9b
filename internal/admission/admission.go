// Package admission is skyd's overload-control layer: a concurrency-limited
// admission gate in front of the cloud's per-account quota, per-function
// capacity estimates in the style of Jindal et al. ("Estimating the
// Capacities of Function-as-a-Service Functions"), and request shedding with
// typed errors carrying a Retry-After hint once estimated capacity is
// exceeded.
//
// The capacity model is Little's law. A platform grants Slots concurrent
// executions (the provider quota, minus headroom the router needs for
// profiling probes). A function whose mean service time is S milliseconds
// therefore sustains at most Slots×1000/S requests per second through those
// slots; the controller admits while observed concurrency stays below
// TargetUtil×Slots and sheds beyond it, which keeps the platform shy of the
// quota cliff where the cloud itself starts throttling and retry storms
// inflate tail latency. Service times are seeded from characterization data
// and updated from observed billed runtimes with an EWMA, so the estimate
// tracks drift without re-profiling.
//
// Determinism contract: the controller never reads the wall clock — every
// method that needs time takes an explicit now. Under skyd the callers pass
// real time; under the simulation (EX-8) they pass virtual time, and the
// same seed replays bit-identically. All state is mutex-guarded and safe
// for concurrent use from HTTP handlers.
package admission

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"skyfaas/internal/metrics"
	"skyfaas/internal/workload"
)

// Gate settings no caller varies.
const (
	// pressureUtil is the utilization at which the controller reports
	// pressure and skyd switches to batched (pinned) routing decisions.
	pressureUtil = 0.75
	// ewmaAlpha weights new service-time observations.
	ewmaAlpha = 0.2
	// routeTTL bounds how long a pinned routing decision is reused under
	// pressure.
	routeTTL = time.Second
	// minRetryAfter / maxRetryAfter clamp the Retry-After hint attached to
	// sheds.
	minRetryAfter = 100 * time.Millisecond
	maxRetryAfter = 5 * time.Second
)

// Config parameterizes a Controller.
type Config struct {
	// Slots is the number of concurrent executions the gate manages —
	// normally the provider quota minus router headroom. Required > 0.
	Slots int
	// TargetUtil is the admitted-concurrency ceiling as a fraction of
	// Slots (default 0.9). Admission stops once inflight reaches
	// TargetUtil×Slots.
	TargetUtil float64
	// Metrics receives the sky_admission_* series; nil disables them.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.TargetUtil == 0 {
		c.TargetUtil = 0.9
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Slots <= 0 {
		return fmt.Errorf("admission: non-positive slots %d", c.Slots)
	}
	if c.TargetUtil <= 0 || c.TargetUtil > 1 {
		return fmt.Errorf("admission: target utilization %v outside (0, 1]", c.TargetUtil)
	}
	return nil
}

// ErrShed is the sentinel every shed wraps; errors.Is(err, ErrShed)
// identifies admission rejections regardless of detail.
var ErrShed = errors.New("admission: shed")

// ShedError is the typed rejection the gate returns when the platform is at
// estimated capacity. It carries everything the HTTP layer needs for a 429:
// the Retry-After hint and the load picture at rejection time.
type ShedError struct {
	Workload    workload.ID
	RetryAfter  time.Duration
	Inflight    int
	Limit       int
	Utilization float64
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: shed %s: %d/%d slots in use (%.0f%% utilization), retry after %v",
		e.Workload, e.Inflight, e.Limit, e.Utilization*100, e.RetryAfter)
}

// Unwrap ties the typed error to the ErrShed sentinel.
func (e *ShedError) Unwrap() error { return ErrShed }

// Ticket is proof of admission; pass it back to Done exactly once.
type Ticket struct {
	id     uint64
	fn     workload.ID
	weight int
	at     time.Time
}

// Workload returns the function the ticket admitted.
func (t Ticket) Workload() workload.ID { return t.fn }

// Weight returns how many slots the ticket holds.
func (t Ticket) Weight() int { return t.weight }

// fnState is the per-function capacity estimate and bookkeeping.
type fnState struct {
	serviceMS float64 // EWMA mean service time
	seeded    bool    // serviceMS came from characterizations (vs BaseMS fallback)
	inflight  int
	admitted  uint64
	shed      uint64
	observed  *metrics.Histogram // service-time distribution (ms)

	mAdmitted *metrics.Counter
	mShed     *metrics.Counter
}

type routeEntry struct {
	az      string
	expires time.Time
}

// Controller is the admission gate. Construct with New; the zero value is
// not usable.
type Controller struct {
	mu       sync.Mutex
	cfg      Config
	enabled  bool
	nextID   uint64
	inflight int
	fns      map[workload.ID]*fnState
	routes   map[workload.ID]routeEntry

	mInflight *metrics.Gauge
	mUtil     *metrics.Gauge
	mRouteHit *metrics.Counter
}

// New returns an enabled controller for cfg.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:     cfg,
		enabled: true,
		fns:     make(map[workload.ID]*fnState),
		routes:  make(map[workload.ID]routeEntry),
	}
	if reg := cfg.Metrics; reg != nil {
		c.mInflight = reg.Gauge("sky_admission_inflight", "Requests currently admitted and in flight.")
		c.mUtil = reg.Gauge("sky_admission_utilization", "Admitted concurrency as a fraction of slots.")
		c.mRouteHit = reg.Counter("sky_admission_route_reuse_total", "Routing decisions served from the pressure cache.")
	}
	return c, nil
}

// limit is the admitted-concurrency ceiling. Callers hold mu.
func (c *Controller) limit() int {
	lim := int(c.cfg.TargetUtil * float64(c.cfg.Slots))
	if lim < 1 {
		lim = 1
	}
	return lim
}

// pressuredLocked reports whether inflight has reached pressureUtil×Slots.
// Callers hold mu.
func (c *Controller) pressuredLocked() bool {
	return float64(c.inflight) >= pressureUtil*float64(c.cfg.Slots)
}

func (c *Controller) fn(w workload.ID) *fnState {
	st, ok := c.fns[w]
	if !ok {
		st = c.newFnState(w)
		c.fns[w] = st
	}
	return st
}

// newFnState builds the per-function bookkeeping the first time a
// workload shows up. Deliberately off the admission hot path: histograms
// and labeled counters allocate freely here, once per function, never per
// request. Callers hold mu.
func (c *Controller) newFnState(w workload.ID) *fnState {
	st := &fnState{observed: metrics.NewHistogram(metrics.ExpBuckets(1, 1.5, 31))}
	if spec, ok := workload.Get(w); ok {
		st.serviceMS = spec.BaseMS
	} else {
		st.serviceMS = 1000
	}
	if reg := c.cfg.Metrics; reg != nil {
		lbl := metrics.L("fn", w.String())
		st.mAdmitted = reg.Counter("sky_admission_admitted_total", "Requests admitted past the gate.", lbl)
		st.mShed = reg.Counter("sky_admission_shed_total", "Requests shed with 429 at the gate.", lbl)
	}
	return st
}

// Seed installs a characterization-derived mean service time (milliseconds)
// for w, replacing the catalog fallback. Later observations still move it.
func (c *Controller) Seed(w workload.ID, serviceMS float64) {
	if c == nil || serviceMS <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.fn(w)
	st.serviceMS = serviceMS
	st.seeded = true
}

// Admit asks the gate for weight concurrent slots for w at time now — one
// slot per invocation, so a burst of N holds N. On success the returned
// ticket must be released with Done. On overload it returns a *ShedError
// (wrapping ErrShed) and no slots are consumed. The admitted path runs
// once per request under skyd's handler and stays allocation-free
// (TestAdmitDoneAllocs pins it); only the shed path constructs an error.
func (c *Controller) Admit(now time.Time, w workload.ID, weight int) (Ticket, error) {
	if weight < 1 {
		weight = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.fn(w)
	lim := c.limit()
	if c.enabled && c.inflight+weight > lim {
		return Ticket{}, c.shedLocked(w, st, lim)
	}
	c.inflight += weight
	st.inflight += weight
	st.admitted++
	st.mAdmitted.Inc()
	c.nextID++
	c.publishLocked()
	return Ticket{id: c.nextID, fn: w, weight: weight, at: now}, nil
}

// shedLocked records the rejection and builds the typed 429 detail.
// Callers hold mu.
func (c *Controller) shedLocked(w workload.ID, st *fnState, lim int) *ShedError {
	st.shed++
	st.mShed.Inc()
	return &ShedError{
		Workload:    w,
		RetryAfter:  c.retryAfterLocked(st),
		Inflight:    c.inflight,
		Limit:       lim,
		Utilization: float64(c.inflight) / float64(c.cfg.Slots),
	}
}

// retryAfterLocked estimates when a slot frees: the mean service time of the
// rejected function scaled by how deep past the limit the platform is, then
// clamped to the configured window. Callers hold mu.
func (c *Controller) retryAfterLocked(st *fnState) time.Duration {
	over := float64(c.inflight-c.limit()) + 1
	frac := over / float64(c.limit())
	if frac < 0.25 {
		frac = 0.25
	}
	d := time.Duration(st.serviceMS * frac * float64(time.Millisecond))
	if d < minRetryAfter {
		d = minRetryAfter
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// Done releases a ticket's slot and, when the request succeeded, feeds the
// observed service time (milliseconds) into the capacity estimate. Runs
// once per completed request; allocation-free like Admit.
func (c *Controller) Done(t Ticket, now time.Time, observedMS float64, ok bool) {
	if t.id == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.fn(t.fn)
	c.inflight -= t.weight
	if c.inflight < 0 {
		c.inflight = 0
	}
	st.inflight -= t.weight
	if st.inflight < 0 {
		st.inflight = 0
	}
	if ok && observedMS > 0 {
		st.serviceMS = (1-ewmaAlpha)*st.serviceMS + ewmaAlpha*observedMS
		st.observed.Observe(observedMS)
	}
	c.publishLocked()
}

func (c *Controller) publishLocked() {
	c.mInflight.Set(float64(c.inflight))
	c.mUtil.Set(float64(c.inflight) / float64(c.cfg.Slots))
}

// CapacityRPS is the Jindal-style sustainable request rate for w given the
// current service-time estimate: TargetUtil×Slots×1000/serviceMS.
func (c *Controller) CapacityRPS(w workload.ID) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.fn(w)
	return c.cfg.TargetUtil * float64(c.cfg.Slots) * 1000 / st.serviceMS
}

// ServiceMS returns the gate's current mean service-time estimate for w in
// milliseconds — seeded from characterizations, EWMA-updated from observed
// completions. The warm-pool sizer turns it into instance counts.
func (c *Controller) ServiceMS(w workload.ID) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fn(w).serviceMS
}

// RouteFor returns the pinned routing decision for w if one is cached,
// fresh, and the controller is under pressure. The bool reports a usable
// hit.
func (c *Controller) RouteFor(w workload.ID, now time.Time) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pressuredLocked() {
		return "", false
	}
	e, ok := c.routes[w]
	if !ok || now.After(e.expires) {
		return "", false
	}
	c.mRouteHit.Inc()
	return e.az, true
}

// RememberRoute pins a freshly computed routing decision for w until
// now+routeTTL, for reuse while pressure lasts.
func (c *Controller) RememberRoute(w workload.ID, az string, now time.Time) {
	if az == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.routes[w] = routeEntry{az: az, expires: now.Add(routeTTL)}
}

// Retune applies a control-plane update. Zero-valued fields keep their
// current setting; Enabled always applies.
type Retune struct {
	// Enabled flips the gate. A disabled controller admits everything
	// (still tracking concurrency and service times): the "no-admission"
	// arm.
	Enabled    *bool   `json:"enabled,omitempty"`
	Slots      int     `json:"slots,omitempty"`
	TargetUtil float64 `json:"targetUtil,omitempty"`
}

// Apply validates and installs the retune.
func (c *Controller) Apply(r Retune) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := c.cfg
	if r.Slots != 0 {
		next.Slots = r.Slots
	}
	if r.TargetUtil != 0 {
		next.TargetUtil = r.TargetUtil
	}
	if err := next.Validate(); err != nil {
		return err
	}
	c.cfg = next
	if r.Enabled != nil {
		c.enabled = *r.Enabled
	}
	c.publishLocked()
	return nil
}

// FnSnapshot is one function's view in a Snapshot.
type FnSnapshot struct {
	Workload    string          `json:"workload"`
	ServiceMS   float64         `json:"serviceMS"`
	Seeded      bool            `json:"seeded"`
	CapacityRPS float64         `json:"capacityRPS"`
	Inflight    int             `json:"inflight"`
	Admitted    uint64          `json:"admitted"`
	Shed        uint64          `json:"shed"`
	Observed    metrics.Summary `json:"observedMS"`
}

// Snapshot is the full gate state served by GET /v1/admission.
type Snapshot struct {
	Enabled      bool         `json:"enabled"`
	Slots        int          `json:"slots"`
	TargetUtil   float64      `json:"targetUtil"`
	PressureUtil float64      `json:"pressureUtil"`
	Limit        int          `json:"limit"`
	Inflight     int          `json:"inflight"`
	Utilization  float64      `json:"utilization"`
	Pressured    bool         `json:"pressured"`
	Functions    []FnSnapshot `json:"functions"`
}

// Snapshot captures the controller state. Functions are sorted by name so
// the output is stable.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Enabled:      c.enabled,
		Slots:        c.cfg.Slots,
		TargetUtil:   c.cfg.TargetUtil,
		PressureUtil: pressureUtil,
		Limit:        c.limit(),
		Inflight:     c.inflight,
		Utilization:  float64(c.inflight) / float64(c.cfg.Slots),
		Pressured:    c.pressuredLocked(),
	}
	for w, st := range c.fns {
		s.Functions = append(s.Functions, FnSnapshot{
			Workload:    w.String(),
			ServiceMS:   st.serviceMS,
			Seeded:      st.seeded,
			CapacityRPS: c.cfg.TargetUtil * float64(c.cfg.Slots) * 1000 / st.serviceMS,
			Inflight:    st.inflight,
			Admitted:    st.admitted,
			Shed:        st.shed,
			Observed:    st.observed.Snapshot().Summary(),
		})
	}
	sort.Slice(s.Functions, func(i, j int) bool {
		return s.Functions[i].Workload < s.Functions[j].Workload
	})
	return s
}
