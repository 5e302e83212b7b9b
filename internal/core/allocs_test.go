package core

import (
	"runtime"
	"testing"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/metrics"
)

// newWorld builds the default 49-zone world as an experiment cell does: a
// short drift horizon, the minimal mesh and a registry of its own.
func newWorld(t *testing.T) {
	t.Helper()
	if _, err := New(Config{
		Seed:      42,
		CloudOpts: cloudsim.Options{HorizonDays: 3},
		SkipMesh:  true,
		Metrics:   metrics.NewRegistry(),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNewWorldAllocs pins what building a world costs. It was 6,691
// allocations and 1.01 MB per New while every zone drew its hosts at
// construction and looking up a series that existed allocated; it is 3,275
// and 356 KB once zones draw their hosts on first use and registration
// allocates only what a new series keeps (3,327 and 366 KB under the race
// detector). Each budget is the higher figure plus a margin of about 4%: an
// upper bound, which work that removes allocations only tightens.
func TestNewWorldAllocs(t *testing.T) {
	const allocBudget, byteBudget = 3450, 380_000
	const runs = 5
	newWorld(t)
	allocs := testing.AllocsPerRun(runs, func() { newWorld(t) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		newWorld(t)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocations and %d bytes per world", allocs, bytes)
	if allocs > allocBudget {
		t.Errorf("building a world allocates %.0f times, budget is %d", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("building a world allocates %d bytes, budget is %d", bytes, byteBudget)
	}
}
