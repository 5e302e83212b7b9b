package router

import (
	"testing"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cpu"
	"skyfaas/internal/workload"
)

// mkDecision builds a Decision over a synthetic store and perf model.
func mkDecision(t *testing.T, shares map[cpu.Kind]float64, means map[cpu.Kind]float64) Decision {
	t.Helper()
	store := charact.NewStore(0)
	counts := make(charact.Counts)
	for k, s := range shares {
		counts[k] = int(s * 1000)
	}
	now := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	store.Put(charact.Characterization{AZ: "z", Taken: now, Counts: counts})
	perf := NewPerfModel()
	for k, m := range means {
		perf.Observe(workload.Zipper, k, m)
	}
	return Decision{Workload: workload.Zipper, Store: store, Perf: perf, Now: now}
}

func TestOptimalBanSetBansWhenProfitable(t *testing.T) {
	// EPYC is 1.5s slower with a 20% share: banning costs
	// (0.2/0.8)*150 = 37.5ms of holds against a 300ms expected gain.
	dec := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon25: 0.8, cpu.EPYC: 0.2},
		map[cpu.Kind]float64{cpu.Xeon25: 4000, cpu.EPYC: 5500},
	)
	banned := optimalBanSet(dec, dec.Lookup("z").Dist, 150)
	if !banned.Has(cpu.EPYC) || banned.Has(cpu.Xeon25) {
		t.Fatalf("bans = %v", banned)
	}
}

func TestOptimalBanSetSkipsUnprofitableBans(t *testing.T) {
	// The "fast" kind is only 50ms faster but holds 5% share: focusing it
	// would cost (0.95/0.05)*150 = 2850ms per completion for a 47.5ms gain.
	dec := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon25: 0.95, cpu.Xeon30: 0.05},
		map[cpu.Kind]float64{cpu.Xeon25: 4000, cpu.Xeon30: 3950},
	)
	if banned := optimalBanSet(dec, dec.Lookup("z").Dist, 150); banned != 0 {
		t.Fatalf("bans = %v, want none", banned)
	}
}

func TestOptimalBanSetPicksInteriorCutoff(t *testing.T) {
	// Three kinds: banning EPYC pays for itself; also banning the 2.5GHz
	// does not (3.0 share too small relative to its modest edge).
	dec := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon30: 0.10, cpu.Xeon25: 0.70, cpu.EPYC: 0.20},
		map[cpu.Kind]float64{cpu.Xeon30: 3800, cpu.Xeon25: 4000, cpu.EPYC: 6000},
	)
	banned := optimalBanSet(dec, dec.Lookup("z").Dist, 150)
	if !banned.Has(cpu.EPYC) {
		t.Errorf("EPYC not banned: %v", banned)
	}
	if banned.Has(cpu.Xeon25) {
		t.Errorf("2.5GHz banned despite thin 3.0GHz supply: %v", banned)
	}
}

func TestOptimalBanSetFocusesWhenFastIsPlentiful(t *testing.T) {
	// 60% of the zone is a much faster CPU: full focus is optimal.
	dec := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon30: 0.6, cpu.Xeon25: 0.3, cpu.EPYC: 0.1},
		map[cpu.Kind]float64{cpu.Xeon30: 3400, cpu.Xeon25: 4200, cpu.EPYC: 6000},
	)
	banned := optimalBanSet(dec, dec.Lookup("z").Dist, 150)
	if !banned.Has(cpu.Xeon25) || !banned.Has(cpu.EPYC) || banned.Has(cpu.Xeon30) {
		t.Fatalf("bans = %v, want all but 3.0GHz", banned)
	}
}

func TestOptimalBanSetDegenerateInputs(t *testing.T) {
	// Single kind present: nothing to ban.
	dec := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon25: 1},
		map[cpu.Kind]float64{cpu.Xeon25: 4000},
	)
	if banned := optimalBanSet(dec, dec.Lookup("z").Dist, 150); banned != 0 {
		t.Fatalf("bans = %v", banned)
	}
	// No characterization.
	empty := Decision{Workload: workload.Zipper, Store: charact.NewStore(0), Perf: NewPerfModel()}
	if banned := optimalBanSet(empty, empty.Lookup("ghost").Dist, 150); banned != 0 {
		t.Fatalf("bans without characterization = %v", banned)
	}
	// Characterized kinds with no perf observations are ignored.
	dec2 := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon25: 0.5, cpu.EPYC: 0.5},
		map[cpu.Kind]float64{cpu.Xeon25: 4000}, // EPYC never profiled
	)
	if banned := optimalBanSet(dec2, dec2.Lookup("z").Dist, 150); banned != 0 {
		t.Fatalf("bans with unprofiled kind = %v", banned)
	}
}

func TestHybridUsesOptimalBans(t *testing.T) {
	dec := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon30: 0.6, cpu.Xeon25: 0.4},
		map[cpu.Kind]float64{cpu.Xeon30: 3400, cpu.Xeon25: 4200},
	)
	banned := Hybrid{}.Ban(dec, "z")
	if !banned.Has(cpu.Xeon25) || banned.Has(cpu.Xeon30) {
		t.Fatalf("hybrid bans = %v", banned)
	}
	// The hold sets the economics: with an enormous hold no ban can pay
	// for itself.
	if banned := optimalBanSet(dec, dec.Lookup("z").Dist, 1e6); banned != 0 {
		t.Fatalf("hybrid with huge hold bans %v", banned)
	}
}

func TestFocusFastestMinShareDefault(t *testing.T) {
	// Fastest kind holds 10% (< the 15% guard): focus degrades to
	// banning the slowest kinds instead of chasing the rare CPU.
	dec := mkDecision(t,
		map[cpu.Kind]float64{cpu.Xeon30: 0.10, cpu.Xeon25: 0.60, cpu.EPYC: 0.30},
		map[cpu.Kind]float64{cpu.Xeon30: 3400, cpu.Xeon25: 4200, cpu.EPYC: 6000},
	)
	banned := FocusFastest{AZ: "z"}.Ban(dec, "z")
	if banned.Has(cpu.Xeon25) {
		t.Fatalf("guard failed, banned the workhorse: %v", banned)
	}
	if !banned.Has(cpu.EPYC) {
		t.Fatalf("slowest kind not banned: %v", banned)
	}
}

func TestBaselineAndRegionalNames(t *testing.T) {
	for _, tc := range []struct {
		s    Strategy
		want string
	}{
		{Baseline{}, "baseline"},
		{Regional{}, "regional"},
		{RetrySlow{}, "retry-slow"},
		{FocusFastest{}, "focus-fastest"},
		{Hybrid{}, "hybrid"},
	} {
		if got := tc.s.Name(); got != tc.want {
			t.Errorf("name = %q, want %q", got, tc.want)
		}
	}
}
