// Package load is the open-model load-generation core shared by the
// skyload CLI (wall-clock, against a live skyd) and EX-8 (virtual-time,
// inside the deterministic simulation). It produces arrival schedules for
// constant / ramp / diurnal RPS curves, draws a per-request function from a
// weighted workload mix, and records per-request outcomes into log-bucketed
// latency histograms that render as a results report.
//
// Open model means arrivals are scheduled by the offered-load curve alone:
// a slow or shedding server does not slow the generator down, which is what
// exposes overload behavior (closed-loop generators self-throttle and hide
// it — the SCOPE paper's central measurement complaint).
package load

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"skyfaas/internal/rng"
	"skyfaas/internal/workload"
)

// Pattern names an offered-load curve shape.
type Pattern string

// The supported arrival patterns.
const (
	// Constant offers PeakRPS for the whole duration.
	Constant Pattern = "constant"
	// Ramp grows linearly from BaseRPS to PeakRPS over the duration.
	Ramp Pattern = "ramp"
	// Diurnal follows one (or more) sinusoidal day curves between BaseRPS
	// and PeakRPS, starting at the trough.
	Diurnal Pattern = "diurnal"
)

// Patterns lists the valid pattern names.
func Patterns() []Pattern { return []Pattern{Constant, Ramp, Diurnal} }

// ValidPattern reports whether p names a known pattern.
func ValidPattern(p Pattern) bool {
	for _, k := range Patterns() {
		if p == k {
			return true
		}
	}
	return false
}

// Schedule describes one deterministic open-loop arrival process.
type Schedule struct {
	// Pattern is the curve shape (default Constant).
	Pattern Pattern
	// PeakRPS is the curve's peak offered rate (required > 0).
	PeakRPS float64
	// BaseRPS is the ramp start / diurnal trough (default 0 for Ramp,
	// PeakRPS/4 for Diurnal; ignored by Constant).
	BaseRPS float64
	// Duration is the total offered-load span (required > 0).
	Duration time.Duration
	// Period is the diurnal cycle length (default Duration: one day fills
	// the run).
	Period time.Duration
}

// slice is the rate-integration step. Arrivals are placed within each
// slice, so a finer slice tracks steep curves more closely at the cost of a
// longer schedule computation.
const slice = 100 * time.Millisecond

func (s Schedule) withDefaults() Schedule {
	if s.Pattern == "" {
		s.Pattern = Constant
	}
	if s.Pattern == Diurnal && s.BaseRPS == 0 {
		s.BaseRPS = s.PeakRPS / 4
	}
	if s.Period == 0 {
		s.Period = s.Duration
	}
	return s
}

// Validate reports whether the schedule is runnable.
func (s Schedule) Validate() error {
	s = s.withDefaults()
	if !ValidPattern(s.Pattern) {
		return fmt.Errorf("load: unknown pattern %q", s.Pattern)
	}
	if s.PeakRPS <= 0 {
		return fmt.Errorf("load: non-positive peak RPS %v", s.PeakRPS)
	}
	if s.BaseRPS < 0 || s.BaseRPS > s.PeakRPS {
		return fmt.Errorf("load: base RPS %v outside [0, peak %v]", s.BaseRPS, s.PeakRPS)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("load: non-positive duration %v", s.Duration)
	}
	return nil
}

// Rate returns the offered rate (requests/second) at offset t.
func (s Schedule) Rate(t time.Duration) float64 {
	s = s.withDefaults()
	if t < 0 || t > s.Duration {
		return 0
	}
	switch s.Pattern {
	case Ramp:
		frac := float64(t) / float64(s.Duration)
		return s.BaseRPS + (s.PeakRPS-s.BaseRPS)*frac
	case Diurnal:
		mid := (s.PeakRPS + s.BaseRPS) / 2
		amp := (s.PeakRPS - s.BaseRPS) / 2
		phase := 2 * math.Pi * float64(t) / float64(s.Period)
		return mid - amp*math.Cos(phase)
	default:
		return s.PeakRPS
	}
}

// OfferedRPS is the schedule's mean offered rate over its duration.
func (s Schedule) OfferedRPS() float64 {
	s = s.withDefaults()
	switch s.Pattern {
	case Ramp:
		return (s.BaseRPS + s.PeakRPS) / 2
	case Diurnal:
		// Whole cycles average to the midpoint; partial cycles are close
		// enough for reporting, and Arrivals integrates exactly anyway.
		return (s.BaseRPS + s.PeakRPS) / 2
	default:
		return s.PeakRPS
	}
}

// Arrivals expands the schedule into sorted arrival offsets from the run
// start. The expansion is a pure function of the schedule and the stream:
// each slice contributes rate×slice expected arrivals (fractional credit
// carries over, so no load is lost to rounding), placed evenly within the
// slice, or uniformly jittered within it when stream is non-nil. Equal
// schedules and equal streams produce identical offset lists.
func (s Schedule) Arrivals(stream *rng.Stream) []time.Duration {
	s = s.withDefaults()
	if s.Validate() != nil {
		return nil
	}
	out := make([]time.Duration, 0, int(s.OfferedRPS()*s.Duration.Seconds())+1)
	credit := 0.0
	for at := time.Duration(0); at < s.Duration; at += slice {
		step := slice
		if at+step > s.Duration {
			step = s.Duration - at
		}
		mid := at + step/2
		credit += s.Rate(mid) * step.Seconds()
		n := int(credit)
		if n == 0 {
			continue
		}
		credit -= float64(n)
		for i := 0; i < n; i++ {
			var frac float64
			if stream != nil {
				frac = stream.Float64()
			} else {
				frac = (float64(i) + 0.5) / float64(n)
			}
			out = append(out, at+time.Duration(frac*float64(step)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------------
// Function mix

// MixEntry weights one catalog workload within a mix.
type MixEntry struct {
	Workload workload.ID
	Weight   float64
}

// Mix is a weighted set of workloads requests are drawn from.
type Mix []MixEntry

// SingleMix is the degenerate mix: every request runs w.
func SingleMix(w workload.ID) Mix { return Mix{{Workload: w, Weight: 1}} }

// ParseMix parses "name=weight,name=weight" (weight defaults to 1 when the
// "=weight" part is omitted) against the workload catalog.
func ParseMix(s string) (Mix, error) {
	var mix Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, "=")
		spec, ok := workload.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("load: unknown workload %q in mix", name)
		}
		weight := 1.0
		if hasWeight {
			w, err := strconv.ParseFloat(strings.TrimSpace(weightStr), 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("load: bad weight %q for %s", weightStr, spec.Name)
			}
			weight = w
		}
		mix = append(mix, MixEntry{Workload: spec.ID, Weight: weight})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("load: empty mix")
	}
	return mix, nil
}

// Pick draws one workload from the mix. A nil stream returns the heaviest
// (first on ties) entry, so single-entry mixes need no randomness.
func (m Mix) Pick(stream *rng.Stream) workload.ID {
	if len(m) == 0 {
		return 0
	}
	if stream == nil || len(m) == 1 {
		best := m[0]
		for _, e := range m[1:] {
			if e.Weight > best.Weight {
				best = e
			}
		}
		return best.Workload
	}
	weights := make([]float64, len(m))
	for i, e := range m {
		weights[i] = e.Weight
	}
	return m[stream.WeightedChoice(weights)].Workload
}

// String renders the mix as the ParseMix input form.
func (m Mix) String() string {
	parts := make([]string, len(m))
	for i, e := range m {
		parts[i] = fmt.Sprintf("%s=%g", e.Workload, e.Weight)
	}
	return strings.Join(parts, ",")
}
