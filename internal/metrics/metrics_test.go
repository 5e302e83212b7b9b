package metrics

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sky_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
	// Same name + labels returns the same series.
	if r.Counter("sky_test_total", "a counter") != c {
		t.Fatal("second lookup returned a different series")
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sky_labeled_total", "", L("az", "us-west-1a"))
	b := r.Counter("sky_labeled_total", "", L("az", "us-west-1b"))
	if a == b {
		t.Fatal("different label values shared a series")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatal("increment leaked across series")
	}
	// Label order must not matter.
	x := r.Counter("sky_two_labels_total", "", L("a", "1"), L("b", "2"))
	y := r.Counter("sky_two_labels_total", "", L("b", "2"), L("a", "1"))
	if x != y {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("sky_kind_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("sky_kind_total", "")
}

func TestLabelSchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("sky_schema_total", "", L("az", "x"))
	defer func() {
		if recover() == nil {
			t.Fatal("changing the label schema did not panic")
		}
	}()
	r.Counter("sky_schema_total", "", L("strategy", "hybrid"))
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("sky_depth", "")
	g.Set(2.5)
	g.Inc()
	g.Dec()
	g.Add(-0.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("Value() = %v, want 2", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles reported nonzero values")
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatalf("nil histogram snapshot = %+v", s)
	}
	var r *Registry
	if r.Counter("x", "") != nil {
		t.Fatal("nil registry returned a live counter")
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

func TestConcurrentCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("sky_conc_total", "").Inc()
				r.Gauge("sky_conc_gauge", "").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("sky_conc_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("sky_conc_gauge", "").Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
}

func TestDefaultRegistryIsStable(t *testing.T) {
	if Default() == nil || Default() != Default() {
		t.Fatal("Default() is not a stable singleton")
	}
}

// TestExistingSeriesLookupAllocatesNothing: a zone's or a handler's series
// is looked up far more often than it is created, so finding one that
// exists allocates nothing, whether its labels come in key order or not.
func TestExistingSeriesLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	lookups := map[string]func(){
		"unlabelled counter": func() { r.Counter("sky_plain_total", "h") },
		"counter":            func() { r.Counter("sky_one_total", "h", L("az", "us-west-1a")) },
		"sorted labels":      func() { r.Counter("sky_two_total", "h", L("az", "us-west-1a"), L("reason", "throttled")) },
		"unsorted labels":    func() { r.Counter("sky_two_total", "h", L("reason", "throttled"), L("az", "us-west-1a")) },
		"gauge":              func() { r.Gauge("sky_depth", "h", L("az", "us-west-1a")) },
		"histogram":          func() { r.Histogram("sky_ms", "h", nil, L("az", "us-west-1a")) },
	}
	for name, lookup := range lookups {
		lookup() // creates the series
		if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
			t.Errorf("%s: looking up an existing series allocates %.0f times, want 0", name, allocs)
		}
	}
}

// TestSeriesKeepsNoCallerSlice: a new series copies its labels, so a caller
// reusing its slice cannot rename a series after the fact.
func TestSeriesKeepsNoCallerSlice(t *testing.T) {
	r := NewRegistry()
	labels := []Label{L("az", "a")}
	r.Counter("sky_alias_total", "", labels...)
	labels[0].Value = "b"
	if got := r.Snapshot().Metrics[0].Series[0].Labels[0].Value; got != "a" {
		t.Fatalf("series label = %q after the caller's slice changed, want %q", got, "a")
	}
}

// TestHistogramSeriesShareSortedBounds: a family's bounds are sorted once
// and every series buckets by them.
func TestHistogramSeriesShareSortedBounds(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("sky_shared_ms", "", []float64{10, 1, 5}, L("az", "a"))
	b := r.Histogram("sky_shared_ms", "", nil, L("az", "b"))
	if &a.bounds[0] != &b.bounds[0] {
		t.Error("two series of one histogram family hold separate bounds")
	}
	for i, want := range []float64{1, 5, 10} {
		if a.bounds[i] != want {
			t.Fatalf("bounds = %v, want [1 5 10]", a.bounds)
		}
	}
}

// TestConcurrentRegistrationOneHandle: goroutines racing to register the
// same series all get the one handle, and the family lists it once.
func TestConcurrentRegistrationOneHandle(t *testing.T) {
	r := NewRegistry()
	const n = 8
	got := make([]*Counter, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = r.Counter("sky_race_total", "", L("reason", "x"), L("az", "a"))
			got[i].Inc()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different handle", i)
		}
	}
	snap := r.Snapshot()
	if len(snap.Metrics) != 1 || len(snap.Metrics[0].Series) != 1 || snap.Metrics[0].Series[0].Value != n {
		t.Fatalf("snapshot = %+v, want one series counting %d", snap.Metrics, n)
	}
}
