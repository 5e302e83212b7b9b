package charact

import (
	"time"

	"skyfaas/internal/cpu"
)

// Passive builds zone characterizations from the SAAF reports of *normal*
// workload traffic instead of dedicated polling — the paper's §4.6 future
// work ("hardware characterizations can be constructed passively as part
// of the normal function execution"). Observations are deduplicated by
// instance id and aged out of a sliding window.
type Passive struct {
	window time.Duration
	byZone map[string]*passiveZone
}

type passiveObs struct {
	at       time.Time
	instance int
	kind     cpu.Kind
}

type passiveZone struct {
	obs  []passiveObs
	seen map[int]int // instance number -> live observation count
}

// NewPassive returns a collector whose observations expire after window
// (0 means 24h).
func NewPassive(window time.Duration) *Passive {
	if window == 0 {
		window = 24 * time.Hour
	}
	return &Passive{
		window: window,
		byZone: make(map[string]*passiveZone),
	}
}

// Window returns the sliding-window length.
func (p *Passive) Window() time.Duration { return p.window }

// Observe records that an invocation at time t ran with CPU kind k on the
// instance numbered instance (saaf.Report.Instance) in zone az. Repeat
// observations of a live instance are deduplicated: a zone numbers its
// instances uniquely, so (az, instance) names one.
func (p *Passive) Observe(az string, t time.Time, instance int, k cpu.Kind) {
	z, ok := p.byZone[az]
	if !ok {
		z = &passiveZone{seen: make(map[int]int)}
		p.byZone[az] = z
	}
	z.expire(t.Add(-p.window))
	if z.seen[instance] > 0 {
		return // instance already counted within the window
	}
	z.seen[instance]++
	z.obs = append(z.obs, passiveObs{at: t, instance: instance, kind: k})
}

// expire drops observations older than cutoff.
func (z *passiveZone) expire(cutoff time.Time) {
	drop := 0
	for drop < len(z.obs) && z.obs[drop].at.Before(cutoff) {
		o := z.obs[drop]
		z.seen[o.instance]--
		if z.seen[o.instance] <= 0 {
			delete(z.seen, o.instance)
		}
		drop++
	}
	if drop > 0 {
		z.obs = append(z.obs[:0], z.obs[drop:]...)
	}
}

// Samples returns the live observation count for a zone at now.
func (p *Passive) Samples(az string, now time.Time) int {
	z, ok := p.byZone[az]
	if !ok {
		return 0
	}
	z.expire(now.Add(-p.window))
	return len(z.obs)
}

// Characterization derives a zone characterization from the window; ok is
// false when fewer than minSamples observations are live.
func (p *Passive) Characterization(az string, now time.Time, minSamples int) (Characterization, bool) {
	z, ok := p.byZone[az]
	if !ok {
		return Characterization{}, false
	}
	z.expire(now.Add(-p.window))
	if len(z.obs) < minSamples {
		return Characterization{}, false
	}
	counts := make(Counts)
	for _, o := range z.obs {
		counts.Add(o.kind)
	}
	return Characterization{
		AZ:      az,
		Taken:   now,
		Samples: len(z.obs),
		Counts:  counts,
		// CostUSD stays zero: that is the whole point of passive mode.
	}, true
}
