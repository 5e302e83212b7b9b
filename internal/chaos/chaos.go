// Package chaos is the sky's fault-injection subsystem: a deterministic
// scheduler of platform pathologies over the simulated multi-cloud.
//
// The paper evaluates smart routing under a well-behaved sky, but the whole
// mechanism — retries, region hopping, >50%-failure saturation detection —
// is a resilience story, and real FaaS performance testing is dominated by
// platform instability (throttling storms, cold-start spikes, capacity
// swings). This package makes the simulated sky hostile on purpose: each
// Fault is a timed window of one pathology on one availability zone, faults
// compose into named Scenarios, and an Injector arms them on the simulation
// clock. Everything is driven by sim.Env scheduling and the zones' seeded
// rng streams, so a chaos run replays bit-identically from its seed.
//
// Fault kinds map onto the cloudsim hooks:
//
//	Outage         — the zone rejects every request (ErrZoneOutage)
//	ThrottleStorm  — spurious 429s at Magnitude probability per request
//	ColdStartSpike — cold-start init time scaled by Magnitude
//	RTTSpike       — ExtraRTT added to every round trip touching the zone
//	DriftBurst     — Magnitude of the idle host pool re-drawn from a
//	                 perturbed mix every Every during the window
//	                 (characterization poisoning)
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/metrics"
)

// Kind names one fault pathology.
type Kind string

// The supported fault kinds.
const (
	Outage         Kind = "outage"
	ThrottleStorm  Kind = "throttle-storm"
	ColdStartSpike Kind = "coldstart-spike"
	RTTSpike       Kind = "rtt-spike"
	DriftBurst     Kind = "drift-burst"
)

// Kinds returns every supported fault kind, in stable order.
func Kinds() []Kind {
	return []Kind{Outage, ThrottleStorm, ColdStartSpike, RTTSpike, DriftBurst}
}

// Errors the injector reports. ErrUnknownKind and ErrBadFault are sentinel
// values so admin layers can map them onto 400s.
var (
	ErrUnknownKind = errors.New("chaos: unknown fault kind")
	ErrBadFault    = errors.New("chaos: invalid fault")
)

// Fault is one timed pathology window on one availability zone. Start is an
// offset from injection time; the window is [Start, Start+Duration).
type Fault struct {
	Kind Kind
	AZ   string
	// Start delays the window's onset from the moment of injection.
	Start time.Duration
	// Duration is the window length (must be positive).
	Duration time.Duration
	// Magnitude parameterizes the pathology: ThrottleStorm's per-request
	// rejection probability in [0,1] (default 0.75), ColdStartSpike's init
	// multiplier (default 8), DriftBurst's idle-pool replacement fraction
	// in [0,1] (default 0.6). Ignored by Outage and RTTSpike.
	Magnitude float64
	// ExtraRTT is RTTSpike's added round trip (default 150 ms).
	ExtraRTT time.Duration
	// Step is DriftBurst's mix-walk step (default 0.5).
	Step float64
	// Every is DriftBurst's repetition period within the window
	// (default 10 min; the first burst lands at Start).
	Every time.Duration
}

func (f Fault) withDefaults() Fault {
	switch f.Kind {
	case ThrottleStorm:
		if f.Magnitude == 0 {
			f.Magnitude = 0.75
		}
	case ColdStartSpike:
		if f.Magnitude == 0 {
			f.Magnitude = 8
		}
	case RTTSpike:
		if f.ExtraRTT == 0 {
			f.ExtraRTT = 150 * time.Millisecond
		}
	case DriftBurst:
		if f.Magnitude == 0 {
			f.Magnitude = 0.6
		}
		if f.Step == 0 {
			f.Step = 0.5
		}
		if f.Every == 0 {
			f.Every = 10 * time.Minute
		}
	}
	return f
}

func (f Fault) validate() error {
	known := false
	for _, k := range Kinds() {
		if f.Kind == k {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("%w: %q (valid: %v)", ErrUnknownKind, f.Kind, Kinds())
	}
	if f.AZ == "" {
		return fmt.Errorf("%w: no AZ", ErrBadFault)
	}
	if f.Duration <= 0 {
		return fmt.Errorf("%w: non-positive duration", ErrBadFault)
	}
	if f.Start < 0 {
		return fmt.Errorf("%w: negative start offset", ErrBadFault)
	}
	if f.Magnitude < 0 || ((f.Kind == ThrottleStorm || f.Kind == DriftBurst) && f.Magnitude > 1) {
		return fmt.Errorf("%w: magnitude %v out of range for %s", ErrBadFault, f.Magnitude, f.Kind)
	}
	return nil
}

// State labels where a scheduled fault is in its lifecycle.
type State string

// Fault lifecycle states.
const (
	StatePending State = "pending"
	StateActive  State = "active"
	StateDone    State = "done"
)

// Status describes one scheduled fault.
type Status struct {
	ID      int
	Fault   Fault
	StartAt time.Time
	EndAt   time.Time
	State   State
}

// scheduled is the injector's record of one armed fault.
type scheduled struct {
	id      int
	fault   Fault
	startAt time.Time
	endAt   time.Time
	state   State
}

// Injector arms fault windows against a cloud. All methods must be called
// from inside the simulation (an Env callback or process); the injector
// shares the kernel's single-threaded discipline and needs no locking.
type Injector struct {
	cloud    *cloudsim.Cloud
	seq      int
	faults   []*scheduled
	active   *metrics.Gauge
	injected map[Kind]*metrics.Counter
}

// NewInjector returns an injector over cloud, reporting into reg (nil
// disables instrumentation).
func NewInjector(cloud *cloudsim.Cloud, reg *metrics.Registry) *Injector {
	in := &Injector{
		cloud: cloud,
		active: reg.Gauge("sky_chaos_active_faults",
			"fault windows currently in their active phase"),
		injected: make(map[Kind]*metrics.Counter, len(Kinds())),
	}
	for _, k := range Kinds() {
		in.injected[k] = reg.Counter("sky_chaos_faults_injected_total",
			"fault windows armed, by kind", metrics.L("kind", string(k)))
	}
	return in
}

// Inject validates f, arms its window on the simulation clock, and returns
// the fault's ID.
func (in *Injector) Inject(f Fault) (int, error) {
	f = f.withDefaults()
	if err := f.validate(); err != nil {
		return 0, err
	}
	az, ok := in.cloud.AZ(f.AZ)
	if !ok {
		return 0, fmt.Errorf("%w: %q", cloudsim.ErrNoSuchAZ, f.AZ)
	}
	env := in.cloud.Env()
	now := env.Now()
	in.seq++
	sc := &scheduled{
		id:      in.seq,
		fault:   f,
		startAt: now.Add(f.Start),
		endAt:   now.Add(f.Start + f.Duration),
		state:   StatePending,
	}
	in.faults = append(in.faults, sc)
	in.injected[f.Kind].Inc()

	env.Schedule(f.Start, func() {
		sc.state = StateActive
		in.active.Inc()
		if f.Kind == DriftBurst {
			in.runDriftBursts(az, sc)
		} else {
			in.applyState(az)
		}
	})
	env.Schedule(f.Start+f.Duration, func() {
		sc.state = StateDone
		in.active.Dec()
		if f.Kind != DriftBurst {
			in.applyState(az)
		}
	})
	return sc.id, nil
}

// runDriftBursts fires the poisoning bursts across the window: one at the
// window start, then one per Every until the window closes.
func (in *Injector) runDriftBursts(az *cloudsim.AZ, sc *scheduled) {
	var fire func()
	fire = func() {
		if sc.state != StateActive {
			return
		}
		az.DriftBurst(sc.fault.Magnitude, sc.fault.Step)
		in.cloud.Env().Schedule(sc.fault.Every, fire)
	}
	fire()
}

// applyState recomputes az's stateful fault fields from every currently
// active window, so overlapping windows compose deterministically (the
// strongest active magnitude wins) and ending one window never clears
// another still in flight.
func (in *Injector) applyState(az *cloudsim.AZ) {
	outage := false
	throttle := 0.0
	coldMult := 0.0
	var extraRTT time.Duration
	for _, sc := range in.faults {
		if sc.state != StateActive || sc.fault.AZ != az.Name() {
			continue
		}
		switch sc.fault.Kind {
		case Outage:
			outage = true
		case ThrottleStorm:
			if sc.fault.Magnitude > throttle {
				throttle = sc.fault.Magnitude
			}
		case ColdStartSpike:
			if sc.fault.Magnitude > coldMult {
				coldMult = sc.fault.Magnitude
			}
		case RTTSpike:
			if sc.fault.ExtraRTT > extraRTT {
				extraRTT = sc.fault.ExtraRTT
			}
		}
	}
	az.SetOutage(outage)
	az.SetThrottleStorm(throttle)
	az.SetColdStartSpike(coldMult)
	az.SetExtraRTT(extraRTT)
}

// Faults lists every scheduled fault in injection order.
func (in *Injector) Faults() []Status {
	out := make([]Status, 0, len(in.faults))
	for _, sc := range in.faults {
		out = append(out, Status{
			ID: sc.id, Fault: sc.fault,
			StartAt: sc.startAt, EndAt: sc.endAt, State: sc.state,
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Scenarios

// Scenario is a named, composable set of fault windows.
type Scenario struct {
	Name   string
	Faults []Fault
}

// InjectScenario arms every fault in s and returns their IDs. Injection is
// all-or-nothing in intent but not transactional: on error, already-armed
// faults stay armed (the caller typically aborts the run anyway).
func (in *Injector) InjectScenario(s Scenario) ([]int, error) {
	ids := make([]int, 0, len(s.Faults))
	for _, f := range s.Faults {
		id, err := in.Inject(f)
		if err != nil {
			return ids, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// The canned EX-6 scenarios. Each targets one zone and is sized so a burst
// started a minute after injection runs fully inside the window.

// ThrottleStormScenario is a 30-minute 429 storm on az at rate.
func ThrottleStormScenario(az string, rate float64) Scenario {
	return Scenario{
		Name: "throttle-storm",
		Faults: []Fault{{
			Kind: ThrottleStorm, AZ: az, Magnitude: rate,
			Duration: 30 * time.Minute,
		}},
	}
}

// OutageScenario takes az fully offline for 20 minutes, starting one
// minute in — bursts in flight see the zone die under them.
func OutageScenario(az string) Scenario {
	return Scenario{
		Name: "zone-outage",
		Faults: []Fault{{
			Kind: Outage, AZ: az,
			Start: time.Minute, Duration: 20 * time.Minute,
		}},
	}
}

// DegradedScenario is the kitchen sink short of an outage: an 8x cold-start
// spike, +150 ms RTT, and characterization-poisoning drift bursts, all on
// az for 30 minutes.
func DegradedScenario(az string) Scenario {
	return Scenario{
		Name: "degraded",
		Faults: []Fault{
			{Kind: ColdStartSpike, AZ: az, Duration: 30 * time.Minute},
			{Kind: RTTSpike, AZ: az, Duration: 30 * time.Minute},
			{Kind: DriftBurst, AZ: az, Duration: 30 * time.Minute},
		},
	}
}

// ScenarioNames lists the canned scenario names, sorted.
func ScenarioNames() []string {
	names := []string{"throttle-storm", "zone-outage", "degraded"}
	sort.Strings(names)
	return names
}

// ScenarioByName builds a canned scenario targeting az; ok is false for
// unknown names.
func ScenarioByName(name, az string) (Scenario, bool) {
	switch name {
	case "throttle-storm":
		return ThrottleStormScenario(az, 0.75), true
	case "zone-outage":
		return OutageScenario(az), true
	case "degraded":
		return DegradedScenario(az), true
	default:
		return Scenario{}, false
	}
}
