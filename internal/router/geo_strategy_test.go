package router

import (
	"testing"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/workload"
)

// charactMake builds a stored characterization for strategy tests.
func charactMake(az string, taken time.Time, counts map[cpu.Kind]int) charact.Characterization {
	c := make(charact.Counts, len(counts))
	for k, n := range counts {
		c[k] = n
	}
	return charact.Characterization{AZ: az, Taken: taken, Counts: c}
}

func TestLatencyBoundFiltersFarZones(t *testing.T) {
	london, _ := geo.City("london")
	frankfurtLoc, _ := geo.City("frankfurt")
	sydneyLoc, _ := geo.City("sydney")
	locator := func(az string) (geo.Coord, bool) {
		switch az {
		case "near-az":
			return frankfurtLoc, true
		case "far-az":
			return sydneyLoc, true
		}
		return geo.Coord{}, false
	}
	dec := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon25: 1},
		map[cpu.Kind]float64{cpu.Xeon25: 4000},
	)
	// Store characterizations for both zones; far-az is faster.
	now := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	dec.Store.Put(charactMake("near-az", now, map[cpu.Kind]int{cpu.Xeon25: 1000}))
	dec.Store.Put(charactMake("far-az", now, map[cpu.Kind]int{cpu.Xeon30: 1000}))
	dec.Perf.Observe(workload.Zipper, cpu.Xeon30, 3000)
	dec.Candidates = []string{"near-az", "far-az"}

	// Unbounded: the fast far zone wins.
	if az := (Regional{}).PickAZ(dec); az != "far-az" {
		t.Fatalf("regional picked %s", az)
	}
	// Bounded at 100ms from London: Sydney is filtered out, and hybrid,
	// which ranks zones as regional does, takes the near zone.
	lb := LatencyBound{
		Client:  london,
		MaxRTT:  100 * time.Millisecond,
		Locator: locator,
	}
	if az := lb.PickAZ(dec); az != "near-az" {
		t.Fatalf("latency-bound picked %s, want near-az", az)
	}
	if name := lb.Name(); name != "latency-bound+hybrid" {
		t.Fatalf("name = %q", name)
	}
}

func TestLatencyBoundDegradesWhenNothingQualifies(t *testing.T) {
	sydneyLoc, _ := geo.City("sydney")
	london, _ := geo.City("london")
	locator := func(string) (geo.Coord, bool) { return sydneyLoc, true }
	dec := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon25: 1},
		map[cpu.Kind]float64{cpu.Xeon25: 4000},
	)
	dec.Candidates = []string{"z"}
	lb := LatencyBound{Client: london, MaxRTT: time.Millisecond, Locator: locator}
	if az := lb.PickAZ(dec); az != "z" {
		t.Fatalf("over-strict bound stranded the burst: %q", az)
	}
}

func TestLatencyBoundDefaults(t *testing.T) {
	lb := LatencyBound{}
	if lb.maxRTT() != 120*time.Millisecond {
		t.Errorf("default maxRTT = %v", lb.maxRTT())
	}
	// Without a locator the filter is a no-op.
	if got := lb.filter([]string{"a", "b"}); len(got) != 2 {
		t.Errorf("filter without locator = %v", got)
	}
}

func TestCostAwarePrefersCheaperRateCard(t *testing.T) {
	dec := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon25: 1},
		map[cpu.Kind]float64{cpu.Xeon25: 4000},
	)
	now := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	// Same hardware everywhere; "cheap-az" bills 40% less per GB-second.
	dec.Store.Put(charactMake("pricey-az", now, map[cpu.Kind]int{cpu.Xeon25: 1000}))
	dec.Store.Put(charactMake("cheap-az", now, map[cpu.Kind]int{cpu.Xeon25: 1000}))
	dec.Candidates = []string{"pricey-az", "cheap-az"}
	pricer := func(az string) (cloudsim.PriceModel, bool) {
		if az == "cheap-az" {
			return cloudsim.PriceModel{PerGBSecond: 0.00001, GranularityMS: 1}, true
		}
		return cloudsim.PriceModel{PerGBSecond: 0.0000166667, GranularityMS: 1}, true
	}
	ca := CostAware{Pricer: pricer}
	if az := ca.PickAZ(dec); az != "cheap-az" {
		t.Fatalf("cost-aware picked %s", az)
	}
	if ca.Name() != "cost-aware" {
		t.Fatalf("name = %q", ca.Name())
	}
}

func TestCostAwareRuntimeFallback(t *testing.T) {
	// Without a pricer it reduces to expected-runtime comparison.
	dec := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon25: 1},
		map[cpu.Kind]float64{cpu.Xeon25: 4000, cpu.Xeon30: 3000},
	)
	now := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	dec.Store.Put(charactMake("slow-az", now, map[cpu.Kind]int{cpu.Xeon25: 1000}))
	dec.Store.Put(charactMake("fast-az", now, map[cpu.Kind]int{cpu.Xeon30: 1000}))
	dec.Candidates = []string{"slow-az", "fast-az"}
	if az := (CostAware{}).PickAZ(dec); az != "fast-az" {
		t.Fatalf("fallback picked %s", az)
	}
	// Empty candidates.
	dec.Candidates = nil
	if az := (CostAware{}).PickAZ(dec); az != "" {
		t.Fatalf("empty candidates -> %q", az)
	}
}

func TestZoneHelpersOverCloud(t *testing.T) {
	_, cloud, _ := world(t)
	locator := NewZoneLocator(cloud)
	if _, ok := locator("slow-az"); !ok {
		t.Error("locator missed a real zone")
	}
	if _, ok := locator("ghost"); ok {
		t.Error("locator resolved a ghost zone")
	}
	pricer := NewZonePricer(cloud)
	price, ok := pricer("slow-az")
	if !ok || price.PerGBSecond == 0 {
		t.Errorf("pricer = %+v ok=%v", price, ok)
	}
	if _, ok := pricer("ghost"); ok {
		t.Error("pricer resolved a ghost zone")
	}
}
