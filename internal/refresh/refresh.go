// Package refresh is the sky's continuous characterization-maintenance
// subsystem: a closed control loop between the passive observations routed
// traffic produces and the active sampling spend that keeps the
// characterization store honest.
//
// The paper samples each zone once and routes on the result; its own EX-4
// evaluation shows that model rots within hours. This package closes the
// loop. A Detector scores per-zone drift (passive-window CPU mix vs the
// stored characterization, total-variation + chi-square). A Maintainer
// orders the maintained zones by a composite urgency score — staleness
// age, drift score, routed traffic share — and re-characterizes the due
// ones through the sampler, governed by a token-bucket budget (USD per
// sim-hour with a cap) plus a per-zone cooldown, so maintenance can never
// dominate spend. The tick, its stop flag, the mode and the budget are a
// control.Loop: deterministic under virtual time, replayable from the
// seed, and stoppable from another OS thread (skyd's Close path). Like
// the loop, everything but its stop flag belongs to the simulation
// goroutine; refreshes run as Env processes, and Force must be called from
// inside the simulation.
package refresh

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/control"
	"skyfaas/internal/metrics"
	"skyfaas/internal/sim"
)

// Mode selects the refresh trigger policy.
type Mode string

// The supported maintenance modes.
const (
	// ModeOff disables automatic refresh; only Force re-samples.
	ModeOff Mode = "off"
	// ModeAge re-samples every maintained zone whose characterization is
	// older than MaxAge — the naive periodic policy.
	ModeAge Mode = "age"
	// ModeDrift re-samples zones whose passive traffic confidently
	// diverges from the stored characterization (with MaxAge kept as a
	// backstop for zones too idle to observe passively).
	ModeDrift Mode = "drift"
)

// modes lists the supported modes in stable order.
var modes = []Mode{ModeOff, ModeAge, ModeDrift}

// Reason labels why a zone was (or would be) refreshed.
type Reason string

// Refresh reasons, also used as metric labels.
const (
	ReasonUnknown Reason = "unknown" // never characterized
	ReasonAge     Reason = "age"     // older than MaxAge
	ReasonDrift   Reason = "drift"   // confident divergence over threshold
	ReasonForced  Reason = "forced"  // operator-initiated
)

// The weights of the composite urgency score.
const (
	// ageWeight weights normalized staleness (age / MaxAge).
	ageWeight = 1
	// driftWeight weights normalized divergence (TV / DriftThreshold).
	driftWeight = 1
	// trafficWeight weights the zone's share of routed completions — a
	// drifted zone carrying most of the traffic matters more than a
	// drifted backwater. Traffic only orders zones; whether one is due
	// reads age and drift alone.
	trafficWeight = 0.5
)

// Loop settings no caller varies.
const (
	// tickEvery is the control-loop cadence in virtual time.
	tickEvery = time.Minute
	// quickPolls is the re-characterization depth per refresh: the cheap
	// quick mode, not a saturation run.
	quickPolls = 3
)

// Config tunes a Maintainer. Zero fields take defaults.
type Config struct {
	// Zones restricts maintenance to a fixed set. Empty means dynamic:
	// every zone in the store plus every zone that has carried routed
	// traffic.
	Zones []string
	// Mode selects the trigger policy (default ModeDrift).
	Mode Mode
	// MaxAge is the staleness trigger (default 1h). In ModeDrift it is the
	// backstop for zones with too little traffic to observe.
	MaxAge time.Duration
	// DriftThreshold is the total-variation distance (0..1) past which a
	// confident score marks the zone drifted (default 0.10).
	DriftThreshold float64
	// MinSamples is the live passive observation floor for a confident
	// drift score (default 25).
	MinSamples int
	// RatePerHour refills the cost budget, USD per sim-hour (default 0.50).
	RatePerHour float64
	// Cap bounds the accumulated budget in USD (default 1.00).
	Cap float64
	// Cooldown is the minimum gap between two refreshes of the same zone
	// (default 15m), so one noisy zone cannot monopolize the budget.
	Cooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = ModeDrift
	}
	if c.MaxAge == 0 {
		c.MaxAge = time.Hour
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.10
	}
	if c.MinSamples == 0 {
		c.MinSamples = 25
	}
	if c.RatePerHour == 0 {
		c.RatePerHour = 0.50
	}
	if c.Cap == 0 {
		c.Cap = 1.00
	}
	if c.Cooldown == 0 {
		c.Cooldown = 15 * time.Minute
	}
	return c
}

// Resampler issues one budgeted re-characterization of a zone. Implemented
// by core.Runtime (ensure sampling endpoints, then CharacterizeQuick); the
// Maintainer stores the result itself.
type Resampler interface {
	Resample(p *sim.Proc, az string, polls int) (charact.Characterization, error)
}

// ZoneStatus is one maintained zone's state at snapshot time.
type ZoneStatus struct {
	AZ string `json:"az"`
	// Known/Fresh/Age mirror the store's view.
	Known bool          `json:"known"`
	Fresh bool          `json:"fresh"`
	Age   time.Duration `json:"-"`
	// Drift is the detector's current score.
	Drift DriftScore `json:"-"`
	// TrafficShare is the zone's fraction of observed routed completions.
	TrafficShare float64 `json:"trafficShare"`
	// Urgency is the composite priority score.
	Urgency float64 `json:"urgency"`
	// Due reports whether the current mode would refresh the zone now
	// (before budget and cooldown gating).
	Due bool `json:"due"`
	// Reason is the trigger a due zone would be refreshed under.
	Reason Reason `json:"reason,omitempty"`
	// LastRefresh is when the maintainer last re-sampled the zone (zero if
	// never).
	LastRefresh time.Time `json:"-"`
}

// MarshalJSON writes the admin surface's wire form: Age in milliseconds,
// the drift score flattened, and LastRefresh in RFC 3339 (absent if never).
func (z ZoneStatus) MarshalJSON() ([]byte, error) {
	type plain ZoneStatus
	w := struct {
		plain
		DriftScore
		AgeMS       float64 `json:"ageMS"`
		LastRefresh string  `json:"lastRefresh,omitempty"`
	}{plain: plain(z), DriftScore: z.Drift, AgeMS: float64(z.Age) / float64(time.Millisecond)}
	if !z.LastRefresh.IsZero() {
		w.LastRefresh = z.LastRefresh.UTC().Format(time.RFC3339)
	}
	return json.Marshal(w)
}

// Status is the maintainer's full snapshot.
type Status struct {
	control.Status[Mode]
	Refreshes       int          `json:"refreshes"`
	Forced          int          `json:"forced"`
	SkippedCooldown int          `json:"skippedCooldown"`
	Zones           []ZoneStatus `json:"zones"`
}

// Maintainer drives continuous characterization maintenance over one
// runtime's store. Everything besides the loop's stop flag is owned by the
// simulation goroutine.
type Maintainer struct {
	*control.Loop[Mode]
	cfg     Config
	env     *sim.Env
	store   *charact.Store
	det     *Detector
	sampler Resampler

	// inflight guards against overlapping refresh processes.
	inflight bool

	traffic      map[string]int
	trafficTotal int
	lastAt       map[string]time.Time

	refreshes       int
	forced          int
	skippedCooldown int

	mRefreshed   map[Reason]*metrics.Counter
	mSkipCool    *metrics.Counter
	mPollsIssued *metrics.Counter
	reg          *metrics.Registry
}

// New assembles a maintainer over env. passive may be nil (drift scoring
// then never gains confidence and ModeDrift degrades to its MaxAge
// backstop); reg may be nil to disable instrumentation.
func New(env *sim.Env, cfg Config, store *charact.Store, passive *charact.Passive, sampler Resampler, reg *metrics.Registry) (*Maintainer, error) {
	cfg = cfg.withDefaults()
	if sampler == nil {
		return nil, fmt.Errorf("refresh: nil sampler")
	}
	m := &Maintainer{
		cfg:     cfg,
		env:     env,
		store:   store,
		det:     NewDetector(passive, store, cfg.MinSamples),
		sampler: sampler,
		traffic: make(map[string]int),
		lastAt:  make(map[string]time.Time),
		reg:     reg,
		mRefreshed: map[Reason]*metrics.Counter{
			ReasonUnknown: reg.Counter("sky_refresh_total", "zone re-characterizations, by trigger", metrics.L("reason", string(ReasonUnknown))),
			ReasonAge:     reg.Counter("sky_refresh_total", "zone re-characterizations, by trigger", metrics.L("reason", string(ReasonAge))),
			ReasonDrift:   reg.Counter("sky_refresh_total", "zone re-characterizations, by trigger", metrics.L("reason", string(ReasonDrift))),
			ReasonForced:  reg.Counter("sky_refresh_total", "zone re-characterizations, by trigger", metrics.L("reason", string(ReasonForced))),
		},
		mSkipCool:    reg.Counter("sky_refresh_skipped_total", "due refreshes deferred, by cause", metrics.L("cause", "cooldown")),
		mPollsIssued: reg.Counter("sky_refresh_polls_total", "sampling polls issued by maintenance refreshes"),
	}
	var err error
	m.Loop, err = control.NewLoop(env, control.Spec[Mode]{
		Name: "refresh", Modes: modes, Mode: cfg.Mode,
		TickEvery: tickEvery, RatePerHour: cfg.RatePerHour, Cap: cfg.Cap,
	}, m.tick, reg)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Config returns the configuration the maintainer was built with, defaults
// applied; the live mode and budget are in Snapshot.
func (m *Maintainer) Config() Config { return m.cfg }

// ObserveTraffic records completed routed invocations landing on az; the
// urgency score uses the accumulated share. Must be called from inside the
// simulation (the router's burst path).
func (m *Maintainer) ObserveTraffic(az string, completed int) {
	if completed <= 0 {
		return
	}
	m.traffic[az] += completed
	m.trafficTotal += completed
}

// tick plans due refreshes and spawns one refresh process when there is
// work and none is in flight.
func (m *Maintainer) tick() {
	if m.inflight {
		return
	}
	if due := m.plan(m.env.Now()); len(due) > 0 {
		m.inflight = true
		m.env.Go("refresh-loop", func(p *sim.Proc) error {
			defer func() { m.inflight = false }()
			m.runDue(p, due)
			return nil
		})
	}
}

// zones returns the maintained zone set, sorted.
func (m *Maintainer) zones() []string {
	if len(m.cfg.Zones) > 0 {
		out := append([]string(nil), m.cfg.Zones...)
		sort.Strings(out)
		return out
	}
	set := make(map[string]bool)
	for _, az := range m.store.Zones() {
		set[az] = true
	}
	for az := range m.traffic {
		set[az] = true
	}
	out := make([]string, 0, len(set))
	for az := range set {
		out = append(out, az)
	}
	sort.Strings(out)
	return out
}

// zoneStatus scores one zone at now.
func (m *Maintainer) zoneStatus(az string, now time.Time) ZoneStatus {
	zs := ZoneStatus{AZ: az, LastRefresh: m.lastAt[az]}
	ch, ok := m.store.Last(az)
	if ok {
		zs.Known = true
		zs.Age = ch.Age(now)
		zs.Fresh = m.store.Fresh(ch, now)
	}
	zs.Drift = m.det.Score(az, now)
	if m.trafficTotal > 0 {
		zs.TrafficShare = float64(m.traffic[az]) / float64(m.trafficTotal)
	}

	ageNorm := 0.0
	if zs.Known {
		ageNorm = float64(zs.Age) / float64(m.cfg.MaxAge)
	}
	driftNorm := 0.0
	if zs.Drift.Confident {
		driftNorm = zs.Drift.TV / m.cfg.DriftThreshold
	}
	zs.Urgency = ageWeight*ageNorm + driftWeight*driftNorm + trafficWeight*zs.TrafficShare

	switch {
	case !zs.Known:
		// Never characterized: urgent under every active mode.
		zs.Due = m.Mode() != ModeOff
		zs.Reason = ReasonUnknown
		zs.Urgency += 2 * ageWeight
	case m.Mode() == ModeAge:
		zs.Due = ageNorm >= 1
		zs.Reason = ReasonAge
	case m.Mode() == ModeDrift:
		switch {
		case driftNorm >= 1:
			zs.Due = true
			zs.Reason = ReasonDrift
		case ageNorm >= 1:
			zs.Due = true
			zs.Reason = ReasonAge
		}
	}
	if m.reg != nil {
		m.reg.Gauge("sky_refresh_drift_tv",
			"total-variation distance between passive traffic mix and stored characterization",
			metrics.L("az", az)).Set(zs.Drift.TV)
	}
	return zs
}

// dueZone is one planned refresh.
type dueZone struct {
	az      string
	urgency float64
	reason  Reason
}

// plan scores every maintained zone and returns the due ones, most urgent
// first with the zone name breaking ties, so planning order is a pure
// function of the scores; per-zone cooldown is already applied.
func (m *Maintainer) plan(now time.Time) []dueZone {
	var due []dueZone
	for _, az := range m.zones() {
		zs := m.zoneStatus(az, now)
		if !zs.Due {
			continue
		}
		if last, ok := m.lastAt[az]; ok && now.Sub(last) < m.cfg.Cooldown {
			m.skippedCooldown++
			m.mSkipCool.Inc()
			continue
		}
		due = append(due, dueZone{az: az, urgency: zs.Urgency, reason: zs.Reason})
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].urgency != due[j].urgency {
			return due[i].urgency > due[j].urgency
		}
		return due[i].az < due[j].az
	})
	return due
}

// runDue executes planned refreshes in urgency order until the budget
// governor says stop. Cooldowns are re-checked at execution time: earlier
// refreshes consume virtual time.
func (m *Maintainer) runDue(p *sim.Proc, due []dueZone) {
	for _, d := range due {
		now := p.Env().Now()
		if last, ok := m.lastAt[d.az]; ok && now.Sub(last) < m.cfg.Cooldown {
			m.skippedCooldown++
			m.mSkipCool.Inc()
			continue
		}
		if !m.Allows(now) {
			return
		}
		if _, err := m.refreshOne(p, d.az, quickPolls, d.reason); err != nil {
			// A refresh that found nothing (e.g. the zone is mid-outage)
			// leaves the old characterization in place; the next tick
			// retries after the cooldown.
			m.lastAt[d.az] = p.Env().Now()
			continue
		}
	}
}

// refreshOne re-samples az and stores the result, debiting actual cost.
func (m *Maintainer) refreshOne(p *sim.Proc, az string, polls int, reason Reason) (charact.Characterization, error) {
	ch, err := m.sampler.Resample(p, az, polls)
	now := p.Env().Now()
	if err != nil {
		return charact.Characterization{}, err
	}
	m.store.Put(ch)
	m.lastAt[az] = now
	m.Debit(now, ch.CostUSD)
	m.refreshes++
	if reason == ReasonForced {
		m.forced++
	}
	m.mRefreshed[reason].Inc()
	m.mPollsIssued.Add(uint64(ch.Polls))
	return ch, nil
}

// Force re-samples az immediately, bypassing mode, thresholds, and
// cooldown (spend is still debited so the governor sees it). polls <= 0
// uses the maintainer's own depth. Must be called from inside the
// simulation.
func (m *Maintainer) Force(p *sim.Proc, az string, polls int) (charact.Characterization, error) {
	if polls <= 0 {
		polls = quickPolls
	}
	return m.refreshOne(p, az, polls, ReasonForced)
}

// Snapshot returns the maintainer's full state at now. Must be called from
// inside the simulation.
func (m *Maintainer) Snapshot() Status {
	now := m.env.Now()
	st := Status{
		Status:          m.Status(),
		Refreshes:       m.refreshes,
		Forced:          m.forced,
		SkippedCooldown: m.skippedCooldown,
	}
	zones := m.zones()
	st.Zones = make([]ZoneStatus, 0, len(zones))
	for _, az := range zones {
		st.Zones = append(st.Zones, m.zoneStatus(az, now))
	}
	return st
}
