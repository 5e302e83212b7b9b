package router

import (
	"math"
	"testing"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/faas"
	"skyfaas/internal/geo"
	"skyfaas/internal/mesh"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

var testEpoch = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

// world builds a two-zone cloud: "slow-az" is a 50/50 mix of the baseline
// 2.5 GHz and EPYC; "fast-az" is 60% 3.0 GHz / 40% baseline.
func world(t *testing.T) (*sim.Env, *cloudsim.Cloud, *Router) {
	t.Helper()
	env := sim.NewEnv(testEpoch)
	catalog := []cloudsim.RegionSpec{{
		Provider: cloudsim.AWS, Name: "r1", Loc: geo.Coord{Lat: 40, Lon: -80},
		AZs: []cloudsim.AZSpec{
			{Name: "slow-az", PoolFIs: 4096,
				Mix: map[cpu.Kind]float64{cpu.Xeon25: 0.5, cpu.EPYC: 0.5}},
			{Name: "fast-az", PoolFIs: 4096,
				Mix: map[cpu.Kind]float64{cpu.Xeon30: 0.6, cpu.Xeon25: 0.4}},
		},
	}}
	cloud := cloudsim.New(env, 21, catalog, cloudsim.Options{HorizonDays: 2})
	m, err := mesh.Build(cloud, mesh.Config{Minimal: true})
	if err != nil {
		t.Fatal(err)
	}
	client := faas.NewClient(cloud, "router-acct")
	r := New(client, m, charact.NewStore(24*time.Hour), NewPerfModel())
	return env, cloud, r
}

// seedStore fills the store with the zones' true mixes (as if sampled).
func seedStore(cloud *cloudsim.Cloud, r *Router, azs ...string) {
	for _, name := range azs {
		az, _ := cloud.AZ(name)
		counts := make(charact.Counts)
		for kind, share := range az.TrueMix() {
			counts[kind] = int(share * 1000)
		}
		r.Store().Put(charact.Characterization{
			AZ: name, Taken: cloud.Env().Now(), Polls: 6, Samples: 1000, Counts: counts,
		})
	}
}

func TestPerfModelBasics(t *testing.T) {
	m := NewPerfModel()
	if _, ok := m.Mean(workload.Zipper, cpu.Xeon25); ok {
		t.Fatal("empty model has a mean")
	}
	if _, ok := m.ExpectedMS(workload.Zipper, charact.Dist{cpu.Xeon25: 1}); ok {
		t.Fatal("empty model has an expectation")
	}
	m.Observe(workload.Zipper, cpu.Xeon25, 1000)
	m.Observe(workload.Zipper, cpu.Xeon25, 1100)
	m.Observe(workload.Zipper, cpu.Xeon30, 900)
	m.Observe(workload.Zipper, cpu.EPYC, 1400)
	mean, ok := m.Mean(workload.Zipper, cpu.Xeon25)
	if !ok || math.Abs(mean-1050) > 1e-9 {
		t.Fatalf("mean = %v", mean)
	}
	if m.Samples(workload.Zipper, cpu.Xeon25) != 2 {
		t.Fatalf("samples = %d", m.Samples(workload.Zipper, cpu.Xeon25))
	}
	kinds := m.Kinds(workload.Zipper)
	if len(kinds) != 3 || kinds[0] != cpu.Xeon30 || kinds[2] != cpu.EPYC {
		t.Fatalf("ranked kinds = %v", kinds)
	}
	norm := m.Normalized(workload.Zipper)
	if math.Abs(norm[cpu.Xeon30]-900.0/1050) > 1e-9 {
		t.Fatalf("normalized = %v", norm)
	}
}

func TestPerfModelExpectedMS(t *testing.T) {
	m := NewPerfModel()
	m.Observe(workload.Zipper, cpu.Xeon25, 1000)
	m.Observe(workload.Zipper, cpu.Xeon30, 800)
	d := charact.Dist{cpu.Xeon25: 0.5, cpu.Xeon30: 0.5}
	got, ok := m.ExpectedMS(workload.Zipper, d)
	if !ok || math.Abs(got-900) > 1e-9 {
		t.Fatalf("expected = %v ok=%v", got, ok)
	}
	// Unobserved kind falls back to overall mean instead of poisoning.
	d2 := charact.Dist{cpu.Xeon25: 0.5, cpu.EPYC: 0.5}
	got2, ok := m.ExpectedMS(workload.Zipper, d2)
	if !ok || got2 <= 0 {
		t.Fatalf("expected with gap = %v", got2)
	}
}

func TestStrategiesPickAndBan(t *testing.T) {
	_, cloud, r := world(t)
	seedStore(cloud, r, "slow-az", "fast-az")
	perf := r.Perf()
	// Train a simple profile: 3.0 fastest, EPYC slowest, with gaps above
	// the 300ms retry-economics guard.
	perf.Observe(workload.Zipper, cpu.Xeon30, 2400)
	perf.Observe(workload.Zipper, cpu.Xeon25, 2820)
	perf.Observe(workload.Zipper, cpu.EPYC, 3900)
	dec := Decision{
		Workload:   workload.Zipper,
		Candidates: []string{"slow-az", "fast-az"},
		Store:      r.Store(),
		Perf:       perf,
		Now:        cloud.Env().Now(),
	}

	if az := (Baseline{AZ: "slow-az"}).PickAZ(dec); az != "slow-az" {
		t.Errorf("baseline picked %s", az)
	}
	if banned := (Baseline{AZ: "slow-az"}).Ban(dec, "slow-az"); banned != 0 {
		t.Errorf("baseline bans %v", banned)
	}

	if az := (Regional{}).PickAZ(dec); az != "fast-az" {
		t.Errorf("regional picked %s, want fast-az", az)
	}

	rs := RetrySlow{AZ: "slow-az"}
	banned := rs.Ban(dec, "slow-az")
	if !banned.Has(cpu.EPYC) {
		t.Errorf("retry-slow bans = %v, want EPYC banned", banned)
	}
	if banned.Has(cpu.Xeon25) {
		t.Error("retry-slow banned the fastest present kind")
	}

	ff := FocusFastest{AZ: "fast-az"}
	banned = ff.Ban(dec, "fast-az")
	if banned.Has(cpu.Xeon30) {
		t.Error("focus-fastest banned the fastest kind")
	}
	if !banned.Has(cpu.Xeon25) {
		t.Errorf("focus-fastest bans = %v, want all but fastest", banned)
	}

	hy := Hybrid{}
	if az := hy.PickAZ(dec); az != "fast-az" {
		t.Errorf("hybrid picked %s", az)
	}
	banned = hy.Ban(dec, "fast-az")
	if banned.Has(cpu.Xeon30) || !banned.Has(cpu.Xeon25) {
		t.Errorf("hybrid bans = %v", banned)
	}
}

func TestFocusFastestRareCPUGuard(t *testing.T) {
	m := NewPerfModel()
	m.Observe(workload.Zipper, cpu.Xeon30, 900)
	m.Observe(workload.Zipper, cpu.Xeon25, 1000)
	m.Observe(workload.Zipper, cpu.Xeon29, 1200)
	m.Observe(workload.Zipper, cpu.EPYC, 1400)
	store := charact.NewStore(0)
	store.Put(charact.Characterization{
		AZ: "z", Taken: testEpoch,
		// 3.0 GHz nearly absent: focusing it would retry forever.
		Counts: charact.Counts{cpu.Xeon30: 1, cpu.Xeon25: 600, cpu.Xeon29: 250, cpu.EPYC: 149},
	})
	dec := Decision{Workload: workload.Zipper, Store: store, Perf: m, Now: testEpoch}
	banned := FocusFastest{AZ: "z"}.Ban(dec, "z")
	if banned.Has(cpu.Xeon25) {
		t.Errorf("rare-CPU guard failed: banned the workhorse kind; bans=%v", banned)
	}
	if !banned.Has(cpu.EPYC) || !banned.Has(cpu.Xeon29) {
		t.Errorf("guard should degrade to retry-slow; bans=%v", banned)
	}
}

func TestStrategyWithoutCharacterizationFallsBack(t *testing.T) {
	m := NewPerfModel()
	store := charact.NewStore(0)
	dec := Decision{
		Workload:   workload.Zipper,
		Candidates: []string{"a", "b"},
		Store:      store,
		Perf:       m,
		Now:        testEpoch,
	}
	if az := (Regional{}).PickAZ(dec); az != "a" {
		t.Errorf("uncharacterized regional pick = %s, want first candidate", az)
	}
	if banned := (RetrySlow{AZ: "a"}).Ban(dec, "a"); banned != 0 {
		t.Errorf("bans without characterization: %v", banned)
	}
}

func TestProfileLearnsFig9Ordering(t *testing.T) {
	env, _, r := world(t)
	env.Go("profile", func(p *sim.Proc) error {
		cost, err := r.Profile(p, workload.LogisticRegression, []string{"slow-az", "fast-az"}, 1200, 0)
		if err != nil {
			return err
		}
		if cost <= 0 {
			t.Error("profiling cost not accounted")
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	perf := r.Perf()
	m30, ok30 := perf.Mean(workload.LogisticRegression, cpu.Xeon30)
	m25, ok25 := perf.Mean(workload.LogisticRegression, cpu.Xeon25)
	mEpyc, okE := perf.Mean(workload.LogisticRegression, cpu.EPYC)
	if !ok30 || !ok25 || !okE {
		t.Fatalf("missing observations: 30=%v 25=%v epyc=%v", ok30, ok25, okE)
	}
	if !(m30 < m25 && m25 < mEpyc) {
		t.Errorf("learned ordering wrong: 3.0=%.0f 2.5=%.0f epyc=%.0f", m30, m25, mEpyc)
	}
	// Learned ratios approximate the hidden ground truth.
	spec, _ := workload.Get(workload.LogisticRegression)
	if ratio := mEpyc / m25; math.Abs(ratio-spec.CPUFactor(cpu.EPYC)) > 0.12 {
		t.Errorf("EPYC ratio learned %.2f, truth %.2f", ratio, spec.CPUFactor(cpu.EPYC))
	}
}

func TestBurstBaselineCompletes(t *testing.T) {
	env, cloud, r := world(t)
	seedStore(cloud, r, "slow-az", "fast-az")
	var res BurstResult
	env.Go("burst", func(p *sim.Proc) error {
		var err error
		res, err = r.Burst(p, BurstSpec{
			Strategy: Baseline{AZ: "slow-az"},
			Workload: workload.Sha1Hash,
			N:        200,
		})
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Completed != 200 || res.Declined != 0 || res.Attempts != 200 {
		t.Fatalf("result = %+v", res)
	}
	if res.CostUSD <= 0 || res.MeanRunMS() <= 0 {
		t.Fatalf("metrics = %+v", res)
	}
	// Work landed on both kinds present in the zone.
	if len(res.PerCPU) < 2 {
		t.Errorf("perCPU = %v", res.PerCPU)
	}
}

func TestBurstFocusFastestAvoidsBannedCPUs(t *testing.T) {
	env, cloud, r := world(t)
	seedStore(cloud, r, "slow-az", "fast-az")
	perf := r.Perf()
	// Gap (420ms) comfortably above the retry-economics guard (300ms).
	perf.Observe(workload.Zipper, cpu.Xeon30, 2400)
	perf.Observe(workload.Zipper, cpu.Xeon25, 2820)
	var res BurstResult
	env.Go("burst", func(p *sim.Proc) error {
		var err error
		res, err = r.Burst(p, BurstSpec{
			Strategy: FocusFastest{AZ: "fast-az"},
			Workload: workload.Zipper,
			N:        600,
		})
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Completed != 600 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.PerCPU[cpu.Xeon25] != 0 {
		t.Errorf("%d executions on banned 2.5GHz", res.PerCPU[cpu.Xeon25])
	}
	if res.PerCPU[cpu.Xeon30] != 600 {
		t.Errorf("perCPU = %v", res.PerCPU)
	}
	if res.Declined == 0 {
		t.Error("focus-fastest on a 60/40 zone should decline some placements")
	}
	if res.RetryFrac() <= 0 {
		t.Error("retry fraction zero")
	}
}

func TestBurstCheaperOnFastZone(t *testing.T) {
	env, cloud, r := world(t)
	seedStore(cloud, r, "slow-az", "fast-az")
	var slow, fast BurstResult
	env.Go("burst", func(p *sim.Proc) error {
		var err error
		slow, err = r.Burst(p, BurstSpec{
			Strategy: Baseline{AZ: "slow-az"}, Workload: workload.MathService, N: 150,
		})
		if err != nil {
			return err
		}
		fast, err = r.Burst(p, BurstSpec{
			Strategy: Baseline{AZ: "fast-az"}, Workload: workload.MathService, N: 150,
		})
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fast.CostUSD >= slow.CostUSD {
		t.Errorf("fast zone cost $%.4f not below slow zone $%.4f", fast.CostUSD, slow.CostUSD)
	}
}

func TestBurstValidation(t *testing.T) {
	env, _, r := world(t)
	env.Go("burst", func(p *sim.Proc) error {
		if _, err := r.Burst(p, BurstSpec{Workload: workload.Zipper, N: 1}); err == nil {
			t.Error("nil strategy accepted")
		}
		if _, err := r.Burst(p, BurstSpec{Strategy: Baseline{AZ: "slow-az"}, Workload: workload.Zipper}); err == nil {
			t.Error("zero N accepted")
		}
		if _, err := r.Burst(p, BurstSpec{Strategy: Baseline{AZ: "ghost"}, Workload: workload.Zipper, N: 1}); err == nil {
			t.Error("unknown AZ accepted")
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
