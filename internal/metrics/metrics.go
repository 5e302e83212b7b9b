// Package metrics is a small, dependency-free instrumentation layer for the
// sky runtime: atomic counters, gauges, and fixed-bucket latency histograms
// behind a registry with Prometheus-text and JSON exposition.
//
// The package serves two very different callers at once. The simulation
// kernel is single-threaded and extremely hot — instrumented model code
// (cloudsim, router) resolves its series once and then touches only
// lock-free atomics on the fast path. HTTP handlers (skyd) are fully
// concurrent — every operation on a Counter, Gauge, Histogram, or Registry
// is safe without external locking, including taking a snapshot while
// writers are active.
//
// All metric handles are nil-safe: methods on a nil *Counter, *Gauge, or
// *Histogram are no-ops, so model code can hold unconditionally-called
// handles and pay nothing when metrics are disabled.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates the metric families a registry can hold.
type Kind string

// The supported metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing integer. The zero value is ready to
// use; a nil receiver is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add increments by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a float64 that can go up and down. The zero value is ready to
// use; a nil receiver is a no-op.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments by delta (negative deltas decrement).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// ---------------------------------------------------------------------------
// Registry

// family is one named metric with a fixed kind, help string, label schema,
// and (for histograms) bucket layout, holding every labeled series.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string  // sorted label keys all series must carry
	bounds  []float64 // sorted histogram upper bounds (nil otherwise), shared by every series
	mu      sync.RWMutex
	series  map[string]entry // series key -> its handle and labels; guarded by mu
	ordered []string         // series keys in first-seen order; guarded by mu
}

// entry is one labeled series of a family.
type entry struct {
	handle any // *Counter | *Gauge | *Histogram
	labels []Label
}

// Registry holds metric families and hands out their series.
type Registry struct {
	mu sync.RWMutex
	// families maps family name to its series table; guarded by mu.
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Runtimes that are not handed an
// explicit registry record here, so CLI tools can dump one snapshot covering
// everything the process ran.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter series of the named family with the given
// labels, creating family and series on first use. It panics if the name is
// already registered with a different kind or label schema — that is a
// programming error, not a runtime condition.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.series(name, help, KindCounter, nil, labels)
	return s.(*Counter)
}

// Gauge returns the gauge series of the named family with the given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.series(name, help, KindGauge, nil, labels)
	return s.(*Gauge)
}

// Histogram returns the histogram series of the named family with the given
// labels. Buckets are cumulative upper bounds; nil means DefBuckets. All
// series of one family share the first registration's bucket layout.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	s := r.series(name, help, KindHistogram, buckets, labels)
	return s.(*Histogram)
}

// series looks the series up, creating it on first use. Looking up one that
// exists allocates nothing: labels already in key order are used as they
// are, others are sorted in a copy on the stack, and the key is built in a
// stack buffer. The caller's slice is never kept; a new series copies it.
func (r *Registry) series(name, help string, kind Kind, bounds []float64, labels []Label) any {
	if r == nil {
		// A nil registry hands out detached nil handles; every operation on
		// them is a no-op.
		switch kind {
		case KindCounter:
			return (*Counter)(nil)
		case KindGauge:
			return (*Gauge)(nil)
		default:
			return (*Histogram)(nil)
		}
	}
	var sorted [4]Label
	labels = sortLabels(sorted[:0], labels)
	fam := r.family(name, help, kind, bounds, labels)
	var key [128]byte
	return fam.get(appendSeriesKey(key[:0], labels), labels)
}

func (r *Registry) family(name, help string, kind Kind, bounds []float64, labels []Label) *family {
	r.mu.RLock()
	fam, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		fam, ok = r.families[name]
		if !ok {
			fam = &family{
				name:   name,
				help:   help,
				kind:   kind,
				labels: labelKeys(labels),
				bounds: sortedBounds(bounds),
				series: make(map[string]entry),
			}
			r.families[name] = fam
		}
		r.mu.Unlock()
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, fam.kind, kind))
	}
	if !fam.hasKeys(labels) {
		panic(fmt.Sprintf("metrics: %s registered with labels %v, requested with %v", name, fam.labels, labelKeys(labels)))
	}
	return fam
}

// hasKeys reports labels carrying exactly the family's label keys, in order.
func (f *family) hasKeys(labels []Label) bool {
	if len(labels) != len(f.labels) {
		return false
	}
	for i, l := range labels {
		if l.Key != f.labels[i] {
			return false
		}
	}
	return true
}

// get returns the series with the given key, creating it (with a copy of
// labels) on first use.
func (f *family) get(key []byte, labels []Label) any {
	f.mu.RLock()
	e, ok := f.series[string(key)]
	f.mu.RUnlock()
	if ok {
		return e.handle
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok = f.series[string(key)]; ok {
		return e.handle
	}
	switch f.kind {
	case KindCounter:
		e.handle = &Counter{}
	case KindGauge:
		e.handle = &Gauge{}
	case KindHistogram:
		e.handle = histogramOn(f.bounds)
	}
	if len(labels) > 0 {
		e.labels = append([]Label(nil), labels...)
	}
	k := string(key)
	f.series[k] = e
	f.ordered = append(f.ordered, k)
	return e.handle
}

// sortLabels returns labels ordered by key, so {a=1,b=2} and {b=2,a=1} are
// the same series: labels itself when already in order, otherwise a sorted
// copy appended to buf.
func sortLabels(buf, labels []Label) []Label {
	if slices.IsSortedFunc(labels, byKey) {
		return labels
	}
	out := append(buf, labels...)
	slices.SortFunc(out, byKey)
	return out
}

func byKey(a, b Label) int { return strings.Compare(a.Key, b.Key) }

func labelKeys(labels []Label) []string {
	keys := make([]string, len(labels))
	for i, l := range labels {
		keys[i] = l.Key
	}
	return keys
}

// appendSeriesKey appends the key that identifies the series with the given
// sorted labels within its family.
func appendSeriesKey(dst []byte, labels []Label) []byte {
	for _, l := range labels {
		dst = append(dst, l.Key...)
		dst = append(dst, 1)
		dst = append(dst, l.Value...)
		dst = append(dst, 2)
	}
	return dst
}
