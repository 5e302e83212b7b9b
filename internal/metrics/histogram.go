package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// DefBuckets is the default latency layout in milliseconds, spanning the
// sub-millisecond sim events up through multi-second profiling runs.
var DefBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// ExpBuckets returns n exponentially spaced bucket bounds starting at start
// and growing by factor. It panics on a non-positive start, a factor <= 1,
// or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Histogram is a fixed-bucket distribution of float64 observations. Bounds
// are inclusive upper edges; every observation beyond the last bound lands
// in an implicit +Inf bucket, so no value is ever dropped. A nil receiver is
// a no-op.
type Histogram struct {
	bounds []float64 // immutable after construction
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits accumulator
}

// sortedBounds returns a sorted copy of bounds (nil for none), which the
// caller may then share among histograms: no histogram writes its bounds.
func sortedBounds(bounds []float64) []float64 {
	if len(bounds) == 0 {
		return nil
	}
	sorted := make([]float64, len(bounds))
	copy(sorted, bounds)
	sort.Float64s(sorted)
	return sorted
}

// histogramOn returns a histogram over sorted, which it shares.
func histogramOn(sorted []float64) *Histogram {
	return &Histogram{
		bounds: sorted,
		counts: make([]atomic.Uint64, len(sorted)+1),
	}
}

// NewHistogram returns a standalone histogram (not attached to a registry)
// with the given bucket upper bounds; nil means DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return histogramOn(sortedBounds(bounds))
}

// Observe records one value. NaN observations are dropped — a poisoned
// mean is worse than a lost sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Buckets first, total count last: a concurrent snapshot that sums the
	// buckets it read can never exceed the writer's published count by more
	// than in-flight observations, and HistSnapshot recomputes Count from
	// the bucket sum so it is always internally consistent.
	h.counts[h.bucketIdx(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
}

// bucketIdx finds the first bound >= v; len(bounds) is the +Inf bucket.
func (h *Histogram) bucketIdx(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the inclusive upper edge; +Inf for the overflow bucket.
	UpperBound float64 `json:"le"`
	// Count is the cumulative number of observations <= UpperBound.
	Count uint64 `json:"count"`
}

// MarshalJSON renders the +Inf overflow bound as the string "+Inf", since
// JSON has no infinity literal.
func (b Bucket) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.UpperBound, 1) {
		return json.Marshal(struct {
			UpperBound string `json:"le"`
			Count      uint64 `json:"count"`
		}{"+Inf", b.Count})
	}
	return json.Marshal(struct {
		UpperBound float64 `json:"le"`
		Count      uint64  `json:"count"`
	}{b.UpperBound, b.Count})
}

// UnmarshalJSON accepts both numeric bounds and the "+Inf" string.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		UpperBound json.RawMessage `json:"le"`
		Count      uint64          `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	var s string
	if err := json.Unmarshal(raw.UpperBound, &s); err == nil {
		if s != "+Inf" {
			return fmt.Errorf("metrics: bad bucket bound %q", s)
		}
		b.UpperBound = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.UpperBound, &b.UpperBound)
}

// HistSnapshot is a point-in-time view of a histogram.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot captures the histogram. It is safe concurrently with Observe;
// Count is recomputed as the sum of the bucket reads, so the snapshot is
// always internally consistent (Count equals the +Inf cumulative bucket)
// even while writers are racing.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	snap := HistSnapshot{Buckets: make([]Bucket, len(h.counts))}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		snap.Buckets[i] = Bucket{UpperBound: bound, Count: cum}
	}
	snap.Count = cum
	snap.Sum = h.Sum()
	return snap
}

// Mean returns the average observation (0 with no observations).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the containing bucket, like Prometheus's histogram_quantile. It
// returns 0 with no observations; estimates falling in the +Inf bucket
// return the last finite bound.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, b := range s.Buckets {
		if float64(b.Count) < rank {
			continue
		}
		if math.IsInf(b.UpperBound, 1) {
			if len(s.Buckets) > 1 {
				return s.Buckets[len(s.Buckets)-2].UpperBound
			}
			return 0
		}
		lower, lowerCount := 0.0, uint64(0)
		if i > 0 {
			lower = s.Buckets[i-1].UpperBound
			lowerCount = s.Buckets[i-1].Count
		}
		inBucket := b.Count - lowerCount
		if inBucket == 0 {
			return b.UpperBound
		}
		return lower + (b.UpperBound-lower)*(rank-float64(lowerCount))/float64(inBucket)
	}
	return s.Buckets[len(s.Buckets)-1].UpperBound
}
