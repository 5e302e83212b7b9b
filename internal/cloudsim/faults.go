package cloudsim

import (
	"time"
)

// faultState is one zone's currently injected platform pathology. The zero
// value means a healthy zone; every field is applied multiplicatively on
// top of the zone's organic behavior, so chaos composes with (rather than
// replaces) drift, contention, and saturation.
//
// The fields are only ever mutated from inside the simulation (via the AZ
// setters below, normally driven by an internal/chaos Injector), so no
// locking is needed: the kernel is single-threaded by construction.
type faultState struct {
	// outage rejects every arriving request — the AZ is unreachable.
	outage bool
	// throttleRate is the probability an arriving request is rejected with
	// ErrThrottled regardless of the account's real quota usage (a 429
	// storm). 0 disables; draws come from the zone's own rng stream and
	// are only taken while a storm is active, so calm runs consume the
	// exact RNG sequence they did before chaos existed.
	throttleRate float64
	// coldStartMult scales the lognormal cold-start initialization delay
	// (a cold-start spike; 0 or 1 = normal).
	coldStartMult float64
	// extraRTT is added to every round trip touching the zone (elevated
	// cross-region RTT; one-way gets half).
	extraRTT time.Duration
}

// FaultSnapshot reports a zone's currently injected faults.
type FaultSnapshot struct {
	AZ            string
	Outage        bool
	ThrottleRate  float64
	ColdStartMult float64
	ExtraRTT      time.Duration
}

// Faulted reports whether any fault is active. Only tests read it, among
// them internal/faas's invoke tests, which is why it is exported.
func (f FaultSnapshot) Faulted() bool {
	return f.Outage || f.ThrottleRate > 0 || (f.ColdStartMult != 0 && f.ColdStartMult != 1) || f.ExtraRTT > 0
}

// SetOutage makes the zone reject every request with ErrZoneOutage (on) or
// restores reachability (off).
func (az *AZ) SetOutage(on bool) { az.fault.outage = on }

// SetThrottleStorm sets the probability an arriving request is spuriously
// throttled (0 ends the storm). Rates are clamped to [0, 1].
func (az *AZ) SetThrottleStorm(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	az.fault.throttleRate = rate
}

// SetColdStartSpike scales cold-start initialization by mult (1 or 0
// restores normal behavior).
func (az *AZ) SetColdStartSpike(mult float64) {
	if mult < 0 {
		mult = 0
	}
	az.fault.coldStartMult = mult
}

// SetExtraRTT adds d to every round trip touching the zone (0 restores).
func (az *AZ) SetExtraRTT(d time.Duration) {
	if d < 0 {
		d = 0
	}
	az.fault.extraRTT = d
}

// DriftBurst immediately re-draws frac of the zone's idle x86 hosts from a
// perturbed target mix (walk step `step`), without moving the zone's
// long-term target — a characterization-poisoning event: any stored
// characterization goes stale the moment the burst lands, exactly like the
// short-lived capacity reshuffles behind the paper's Fig. 8 bad hours.
func (az *AZ) DriftBurst(frac, step float64) {
	if frac <= 0 {
		return
	}
	az.ensure()
	perturbed := walkMix(az.rand, az.targetMix, step)
	az.replaceIdleHostsFrom(frac, perturbed)
}

// FaultSnapshot returns the zone's current fault state. Only tests read
// it, among them internal/chaos's window tests and internal/faas's invoke
// tests, which is why it is exported.
func (az *AZ) FaultSnapshot() FaultSnapshot {
	return FaultSnapshot{
		AZ:            az.spec.Name,
		Outage:        az.fault.outage,
		ThrottleRate:  az.fault.throttleRate,
		ColdStartMult: az.fault.coldStartMult,
		ExtraRTT:      az.fault.extraRTT,
	}
}

// coldStartFactor is the chaos multiplier applied to cold-start init time.
func (f faultState) coldStartFactor() float64 {
	if f.coldStartMult <= 0 {
		return 1
	}
	return f.coldStartMult
}

// rejectChaos applies the zone's active reject-class faults to an arriving
// request: a full outage rejects everything; a throttle storm rejects a
// random fraction. It returns the rejection error, or nil to admit.
func (az *AZ) rejectChaos() error {
	if az.fault.outage {
		az.m.faultOutage.Inc()
		return ErrZoneOutage
	}
	if az.fault.throttleRate <= 0 {
		return nil
	}
	// The storm's draw comes off the zone's stream: the hosts must be
	// drawn first, even for a zone no request has reached before.
	az.ensure()
	if az.rand.Bool(az.fault.throttleRate) {
		az.m.faultThrottle.Inc()
		return ErrThrottled
	}
	return nil
}
