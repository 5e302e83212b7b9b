// Package charact turns raw infrastructure observations into CPU
// characterizations: per-zone hardware distributions, their error against a
// reference, progressive-sampling accuracy curves, and temporal-stability
// analysis (RQ-2).
package charact

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"skyfaas/internal/cpu"
)

// Dist is a CPU distribution: each catalogued kind's share, summing to ~1.
type Dist map[cpu.Kind]float64

// Counts tallies observed function instances by CPU kind.
type Counts map[cpu.Kind]int

// Add records one observation.
func (c Counts) Add(k cpu.Kind) { c[k]++ }

// Merge folds other into c.
func (c Counts) Merge(other Counts) {
	for k, n := range other {
		c[k] += n
	}
}

// Total returns the number of observations.
func (c Counts) Total() int {
	var t int
	for _, n := range c {
		t += n
	}
	return t
}

// Dist normalizes the counts into a distribution (empty counts yield an
// empty distribution).
func (c Counts) Dist() Dist {
	total := c.Total()
	if total == 0 {
		return Dist{}
	}
	d := make(Dist, len(c))
	for k, n := range c {
		d[k] = float64(n) / float64(total)
	}
	return d
}

// Share returns kind k's share (0 when absent).
func (d Dist) Share(k cpu.Kind) float64 { return d[k] }

// String renders the distribution compactly in catalogue order.
func (d Dist) String() string {
	var b strings.Builder
	first := true
	for _, k := range cpu.Kinds() {
		s, ok := d[k]
		if !ok || s == 0 {
			continue
		}
		if !first {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s:%.1f%%", k, s*100)
		first = false
	}
	return b.String()
}

// APE is the absolute percentage error between an estimate and a reference
// distribution: the total-variation distance expressed in percent
// (0 = identical, 100 = disjoint); accuracy is 100 − APE.
func APE(est, ref Dist) float64 {
	// Sum in catalog order so floating-point rounding is reproducible.
	var l1 float64
	for _, k := range cpu.Kinds() {
		diff := est[k] - ref[k]
		if diff < 0 {
			diff = -diff
		}
		l1 += diff
	}
	return 100 * l1 / 2
}

// Characterization is one zone's hardware profile at a point in time.
type Characterization struct {
	AZ      string
	Taken   time.Time
	Polls   int
	Samples int // unique function instances observed
	Counts  Counts
	CostUSD float64
}

// Dist returns the characterized distribution.
func (ch Characterization) Dist() Dist { return ch.Counts.Dist() }

// Age returns how stale the characterization is at now.
func (ch Characterization) Age(now time.Time) time.Duration {
	return now.Sub(ch.Taken)
}

// ---------------------------------------------------------------------------
// Progressive sampling

// ProgressiveAPE returns the APE of each cumulative poll prefix against the
// reference distribution: element i is the error after polls 0..i.
func ProgressiveAPE(perPoll []Counts, ref Dist) []float64 {
	out := make([]float64, len(perPoll))
	cum := make(Counts)
	for i, c := range perPoll {
		cum.Merge(c)
		out[i] = APE(cum.Dist(), ref)
	}
	return out
}

// PollsToAccuracy returns the 1-based index of the first poll prefix whose
// accuracy reaches target percent, or -1 if none does.
func PollsToAccuracy(apes []float64, target float64) int {
	for i, ape := range apes {
		if 100-ape >= target {
			return i + 1
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Temporal stability

// StabilitySeries scores how a zone's distribution wanders from a baseline:
// element i is APE(dists[i], baseline).
func StabilitySeries(baseline Dist, dists []Dist) []float64 {
	out := make([]float64, len(dists))
	for i, d := range dists {
		out[i] = APE(d, baseline)
	}
	return out
}

// ---------------------------------------------------------------------------
// Store

// Store keeps the freshest characterization per zone with a usable
// lifespan, so routing can decide when a zone must be re-profiled.
type Store struct {
	ttl time.Duration
	by  map[string]Characterization
}

// NewStore returns a store whose entries expire after ttl (0 = never).
func NewStore(ttl time.Duration) *Store {
	return &Store{ttl: ttl, by: make(map[string]Characterization)}
}

// Put records ch as the zone's current characterization.
func (s *Store) Put(ch Characterization) { s.by[ch.AZ] = ch }

// Get returns the zone's characterization if present and fresh at now.
func (s *Store) Get(az string, now time.Time) (Characterization, bool) {
	ch, ok := s.by[az]
	if !ok {
		return Characterization{}, false
	}
	if !s.Fresh(ch, now) {
		return Characterization{}, false
	}
	return ch, true
}

// Last returns the zone's most recent characterization regardless of
// freshness. Callers that prefer degrading on stale data over flying blind
// (see router.Decision.Lookup) pair it with Fresh to decide how much to
// trust it.
func (s *Store) Last(az string) (Characterization, bool) {
	ch, ok := s.by[az]
	return ch, ok
}

// Fresh reports whether ch is still within the store's lifespan at now.
func (s *Store) Fresh(ch Characterization, now time.Time) bool {
	return s.ttl <= 0 || ch.Age(now) <= s.ttl
}

// Zones lists zones with stored characterizations (fresh or not), sorted.
func (s *Store) Zones() []string {
	out := make([]string, 0, len(s.by))
	for az := range s.by {
		out = append(out, az)
	}
	sort.Strings(out)
	return out
}
