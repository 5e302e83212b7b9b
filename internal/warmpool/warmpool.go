// Package warmpool is the sky's predictive pre-warming subsystem: a
// control loop that converts forecast per-zone arrival rates and
// characterized service times into target warm-instance counts, and keeps
// the cloud's warm pools sized to them under an explicit USD budget.
//
// The router decides *where* to run; nothing before this package decided
// *how warm* the chosen zone should be, so every first invocation after a
// routing change or an idle trough paid cloudsim's lognormal cold start.
// The Maintainer closes that gap. A per-zone forecaster (seasonal EWMA /
// Holt–Winters over sim-time windows, fed by the same routed-traffic
// observations the refresh subsystem collects) estimates the arrival rate;
// a Little's-law sizer multiplies rate by the admission gate's service-time
// estimate to get the concurrency the zone must hold warm; and one of
// three policies — pinned (fixed floor), reactive (track the recent rate),
// predictive (forecast one lead ahead of the diurnal curve) — turns that
// into PreWarm/SetFloor actuations against cloudsim. Provisioning spend is
// real money: the tick, its stop flag, the mode and the token-bucket
// budget (USD per sim-hour with a cap) are a control.Loop, and when the
// bucket is empty, pool growth waits. Like the loop, everything but its
// stop flag belongs to the simulation goroutine; actuation results are
// delivered back on the maintainer's env.
package warmpool

import (
	"fmt"
	"math"
	"sort"
	"time"

	"skyfaas/internal/control"
	"skyfaas/internal/metrics"
	"skyfaas/internal/sim"
)

// Mode selects the pool-sizing policy.
type Mode string

// The supported warm-pool policies.
const (
	// ModeOff clears every floor and provisions nothing.
	ModeOff Mode = "off"
	// ModePinned holds a fixed warm floor per zone regardless of traffic.
	ModePinned Mode = "pinned"
	// ModeReactive sizes the pool to the smoothed recent arrival rate —
	// always one diurnal edge behind.
	ModeReactive Mode = "reactive"
	// ModePredictive sizes the pool to the peak seasonal forecast within
	// the next lead interval, warming before the curve rises.
	ModePredictive Mode = "predictive"
)

// modes lists the supported modes in stable order.
var modes = []Mode{ModeOff, ModePinned, ModeReactive, ModePredictive}

// Provision reports one actuation's outcome, mirrored from the cloud's
// actuator result so the policy layer stays decoupled from cloudsim.
type Provision struct {
	// Live / Idle are the deployment's instance counts after actuation.
	Live int
	Idle int
	// Requested is the deficit the actuator tried to fill; Provisioned is
	// what capacity allowed; CostUSD the billed spend (pre-warm
	// initializations plus the floor-hold charge accrued since the
	// previous actuation).
	Requested   int
	Provisioned int
	CostUSD     float64
	Err         error
}

// Actuator applies one zone's warm-pool decision: raise the deployment
// toward target provisioned instances and set its keep-alive floor. done
// must be delivered on the maintainer's env (core.Runtime adapts
// cloudsim.StartEnsureWarm, one intra-cloud round trip).
type Actuator interface {
	EnsureWarm(az string, target, floor int, done func(Provision))
}

// Sizing constants no experiment varies.
const (
	// alpha is the Holt–Winters level smoothing factor: an even blend of
	// the newest window and the running level.
	alpha = 0.5
	// maxPerZone clamps any policy's target, so a runaway forecast stops
	// at a bounded pool per zone.
	maxPerZone = 64
	// safetyFactor pads the Little's-law target against burstiness.
	safetyFactor = 1.25
)

// Config tunes a Maintainer. Zero fields take defaults.
type Config struct {
	// Zones restricts the maintained set. Empty means dynamic: every zone
	// that carries observed traffic is adopted.
	Zones []string
	// Mode selects the sizing policy (default ModePredictive).
	Mode Mode
	// TickEvery is the control-loop cadence in virtual time (default 30s).
	TickEvery time.Duration
	// Window is the forecaster's bucket width (default 1m).
	Window time.Duration
	// Season is the seasonal period the forecaster learns (default 24h —
	// the diurnal cycle; experiments compress it).
	Season time.Duration
	// Lead is how far ahead the predictive policy sizes for (default 2m;
	// it should cover the provisioning-to-demand gap, i.e. at least one
	// tick plus a cold start).
	Lead time.Duration
	// Gamma is the Holt–Winters seasonal smoothing factor (default 0.35).
	Gamma float64
	// Floor is the pinned policy's fixed per-zone warm floor (default 4).
	Floor int
	// RatePerHour refills the provisioning budget, USD per sim-hour
	// (default 0.50); Cap bounds the accrued balance (default 1.00).
	RatePerHour float64
	Cap         float64
}

func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = ModePredictive
	}
	if c.TickEvery == 0 {
		c.TickEvery = 30 * time.Second
	}
	if c.Window == 0 {
		c.Window = time.Minute
	}
	if c.Season == 0 {
		c.Season = 24 * time.Hour
	}
	if c.Lead == 0 {
		c.Lead = 2 * time.Minute
	}
	if c.Gamma == 0 {
		c.Gamma = 0.35
	}
	if c.Floor == 0 {
		c.Floor = 4
	}
	if c.RatePerHour == 0 {
		c.RatePerHour = 0.50
	}
	if c.Cap == 0 {
		c.Cap = 1.00
	}
	return c
}

// ZoneStatus is one maintained zone's state at snapshot time.
type ZoneStatus struct {
	AZ string `json:"az"`
	// RecentRPS / ForecastRPS are the forecaster's smoothed current rate
	// and its peak forecast rate within the next lead.
	RecentRPS   float64 `json:"recentRPS"`
	ForecastRPS float64 `json:"forecastRPS"`
	// Target / Floor are the current policy decision.
	Target int `json:"target"`
	Floor  int `json:"floor"`
	// Live / Idle are the counts the last actuation reported back.
	Live int `json:"live"`
	Idle int `json:"idle"`
	// Provisioned / SpentUSD accumulate over the zone's lifetime.
	Provisioned int     `json:"provisioned"`
	SpentUSD    float64 `json:"spentUSD"`
}

// Status is the maintainer's full snapshot.
type Status struct {
	control.Status[Mode]
	Ticks       int          `json:"ticks"`
	Provisioned int          `json:"provisioned"`
	Zones       []ZoneStatus `json:"zones"`
}

// zoneState is the per-zone loop state, owned by the simulation goroutine.
type zoneState struct {
	f           *forecaster
	target      int
	floor       int
	live        int
	idle        int
	provisioned int
	spent       float64
	inflight    bool
	mTarget     *metrics.Gauge
	mForecast   *metrics.Gauge
}

// Maintainer drives the warm-pool control loop. Everything besides the
// loop's stop flag is owned by the simulation goroutine.
type Maintainer struct {
	*control.Loop[Mode]
	cfg   Config
	env   *sim.Env
	act   Actuator
	svcMS func() float64

	zones map[string]*zoneState
	names []string // sorted iteration order over zones

	provisioned int

	reg          *metrics.Registry
	mProvisioned *metrics.Counter
}

// New assembles a maintainer over env. act applies decisions to the cloud;
// svcMS returns the current mean service-time estimate in milliseconds
// (core.Runtime derives it from the admission gate's capacity model, which
// is seeded from characterizations and EWMA-updated from live traffic);
// reg may be nil to disable instrumentation.
func New(env *sim.Env, cfg Config, act Actuator, svcMS func() float64, reg *metrics.Registry) (*Maintainer, error) {
	cfg = cfg.withDefaults()
	if act == nil {
		return nil, fmt.Errorf("warmpool: nil actuator")
	}
	if svcMS == nil {
		return nil, fmt.Errorf("warmpool: nil service-time estimator")
	}
	if cfg.Window > cfg.Season {
		return nil, fmt.Errorf("warmpool: window %v exceeds season %v", cfg.Window, cfg.Season)
	}
	m := &Maintainer{
		cfg:   cfg,
		env:   env,
		act:   act,
		svcMS: svcMS,
		zones: make(map[string]*zoneState),
		reg:   reg,
		mProvisioned: reg.Counter("sky_warmpool_provisioned_total",
			"instances provisioned by the warm-pool maintainer"),
	}
	var err error
	m.Loop, err = control.NewLoop(env, control.Spec[Mode]{
		Name: "warmpool", Modes: modes, Mode: cfg.Mode,
		TickEvery: cfg.TickEvery, RatePerHour: cfg.RatePerHour, Cap: cfg.Cap,
	}, m.tick, reg)
	if err != nil {
		return nil, err
	}
	for _, az := range cfg.Zones {
		m.adopt(az)
	}
	return m, nil
}

// Config returns the configuration the maintainer was built with, defaults
// applied; the live mode and budget are in Snapshot.
func (m *Maintainer) Config() Config { return m.cfg }

// adopt registers a zone, keeping names sorted so tick order is stable.
func (m *Maintainer) adopt(az string) *zoneState {
	if z, ok := m.zones[az]; ok {
		return z
	}
	z := &zoneState{
		f: newForecaster(m.env.Now(), m.cfg.Window, m.cfg.Season, alpha, m.cfg.Gamma),
		mTarget: m.reg.Gauge("sky_warmpool_target",
			"current warm-pool target instance count", metrics.L("az", az)),
		mForecast: m.reg.Gauge("sky_warmpool_forecast_rps",
			"peak forecast arrival rate within the next lead (requests/sec)", metrics.L("az", az)),
	}
	m.zones[az] = z
	i := sort.SearchStrings(m.names, az)
	m.names = append(m.names, "")
	copy(m.names[i+1:], m.names[i:])
	m.names[i] = az
	return z
}

// ObserveTraffic records completed routed invocations landing on az — the
// forecaster's signal. Zones outside a fixed Zones set are ignored; with a
// dynamic set they are adopted on first traffic. Must be called from
// inside the simulation (the router's burst path).
func (m *Maintainer) ObserveTraffic(az string, completed int) {
	if completed <= 0 {
		return
	}
	z, ok := m.zones[az]
	if !ok {
		if len(m.cfg.Zones) > 0 {
			return
		}
		z = m.adopt(az)
	}
	z.f.observe(m.env.Now(), completed)
}

// plan computes one zone's policy decision at now.
func (m *Maintainer) plan(z *zoneState, now time.Time) (target, floor int) {
	switch m.Mode() {
	case ModeOff:
		return 0, 0
	case ModePinned:
		f := m.cfg.Floor
		if f > maxPerZone {
			f = maxPerZone
		}
		return f, f
	case ModeReactive:
		t := m.size(z.f.recentRPS())
		return t, t
	default: // ModePredictive
		// Provision for the worst window inside the lead (warm ahead of a
		// rising edge), but hold only what demand will be once the lead has
		// passed (release ahead of a falling edge): foresight saves hold
		// spend on the way down exactly as it saves cold starts on the way
		// up. Instances above the floor stay warm under ordinary keep-alive
		// as long as traffic keeps reusing them.
		t := m.size(z.f.forecastRPS(m.cfg.Lead))
		f := m.size(z.f.forecastPointRPS(m.cfg.Lead))
		if f > t {
			f = t
		}
		return t, f
	}
}

// size converts an arrival rate into a warm-instance target: Little's law
// (concurrency = rate x service time) padded by the safety factor and
// clamped to the per-zone cap.
func (m *Maintainer) size(rps float64) int {
	if rps <= 0 {
		return 0
	}
	t := int(math.Ceil(rps * m.svcMS() / 1000 * safetyFactor))
	if t > maxPerZone {
		t = maxPerZone
	}
	return t
}

// tick runs one control-loop pass: advance each forecaster to now, plan,
// and dispatch actuations. Growth is gated by the budget; shrinking or
// zero targets always dispatch (clearing a floor is free). A zone with an
// actuation still in flight is skipped — the next tick re-plans it.
func (m *Maintainer) tick() {
	now := m.env.Now()
	for _, az := range m.names {
		z := m.zones[az]
		z.f.advance(now)
		target, floor := m.plan(z, now)
		if z.inflight {
			continue
		}
		if target > z.live && !m.Allows(now) {
			continue
		}
		z.target, z.floor = target, floor
		z.mTarget.Set(float64(target))
		z.mForecast.Set(z.f.forecastRPS(m.cfg.Lead))
		z.inflight = true
		m.act.EnsureWarm(az, target, floor, func(r Provision) {
			z.inflight = false
			if r.Err != nil {
				return
			}
			z.live, z.idle = r.Live, r.Idle
			z.provisioned += r.Provisioned
			z.spent += r.CostUSD
			m.provisioned += r.Provisioned
			m.mProvisioned.Add(uint64(r.Provisioned))
			if r.CostUSD > 0 {
				m.Debit(m.env.Now(), r.CostUSD)
			}
		})
	}
}

// Snapshot returns the maintainer's full state at now. Must be called from
// inside the simulation.
func (m *Maintainer) Snapshot() Status {
	now := m.env.Now()
	st := Status{
		Status:      m.Status(),
		Ticks:       m.Ticks(),
		Provisioned: m.provisioned,
		Zones:       make([]ZoneStatus, 0, len(m.names)),
	}
	for _, az := range m.names {
		z := m.zones[az]
		z.f.advance(now)
		st.Zones = append(st.Zones, ZoneStatus{
			AZ:          az,
			RecentRPS:   z.f.recentRPS(),
			ForecastRPS: z.f.forecastRPS(m.cfg.Lead),
			Target:      z.target,
			Floor:       z.floor,
			Live:        z.live,
			Idle:        z.idle,
			Provisioned: z.provisioned,
			SpentUSD:    z.spent,
		})
	}
	return st
}
