package core

import (
	"testing"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/router"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// tinyCatalog is a two-zone world small enough for fast end-to-end tests.
func tinyCatalog() []cloudsim.RegionSpec {
	return []cloudsim.RegionSpec{{
		Provider: cloudsim.AWS, Name: "t1", Loc: geo.Coord{Lat: 40, Lon: -80},
		AZs: []cloudsim.AZSpec{
			{Name: "t1-slow", PoolFIs: 2048,
				Mix: map[cpu.Kind]float64{cpu.Xeon25: 0.5, cpu.EPYC: 0.5}},
			{Name: "t1-fast", PoolFIs: 2048,
				Mix: map[cpu.Kind]float64{cpu.Xeon30: 0.6, cpu.Xeon25: 0.4}},
		},
	}}
}

func tinyRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := New(Config{
		Seed:    11,
		Catalog: tinyCatalog(),
		SamplerCfg: sampler.Config{
			Endpoints: 30, PollSize: 84, Branch: 4,
			InterPollPause: 500 * time.Millisecond,
		},
		SkipMesh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestNewDefaultsAndAccessors(t *testing.T) {
	rt := tinyRuntime(t)
	for name, v := range map[string]any{
		"Env": rt.Env(), "Cloud": rt.Cloud(), "Client": rt.Client(),
		"Mesh": rt.Mesh(), "Sampler": rt.Sampler(), "Store": rt.Store(),
		"Perf": rt.Perf(), "Router": rt.Router(),
	} {
		if v == nil {
			t.Errorf("%s is nil", name)
		}
	}
	if rt.Mesh().Size() != 2 {
		t.Errorf("minimal mesh size = %d, want 2 (one per zone)", rt.Mesh().Size())
	}
}

func TestFullDefaultWorldConstructs(t *testing.T) {
	rt, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Cloud().Regions()); got != 41 {
		t.Errorf("regions = %d", got)
	}
	if rt.Mesh().Size() < 600 {
		t.Errorf("full mesh size = %d", rt.Mesh().Size())
	}
}

func TestEndToEndCharacterizeProfileRoute(t *testing.T) {
	rt := tinyRuntime(t)
	azs := []string{"t1-slow", "t1-fast"}
	var baseline, hybrid router.BurstResult
	err := rt.Do(func(p *sim.Proc) error {
		// 1. Characterize both zones cheaply.
		if _, err := rt.Refresh(p, azs, 4); err != nil {
			return err
		}
		// 2. Learn workload performance.
		if _, err := rt.ProfileWorkloads(p, []workload.ID{workload.MathService}, azs, 600); err != nil {
			return err
		}
		// 3. Route: baseline in the slow zone vs hybrid over both.
		var err error
		baseline, err = rt.Run(p, router.BurstSpec{
			Strategy:   router.Baseline{AZ: "t1-slow"},
			Workload:   workload.MathService,
			N:          300,
			Candidates: azs,
		})
		if err != nil {
			return err
		}
		hybrid, err = rt.Run(p, router.BurstSpec{
			Strategy:   router.Hybrid{},
			Workload:   workload.MathService,
			N:          300,
			Candidates: azs,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Completed != 300 || hybrid.Completed != 300 {
		t.Fatalf("completed: baseline=%d hybrid=%d", baseline.Completed, hybrid.Completed)
	}
	if hybrid.AZ != "t1-fast" {
		t.Errorf("hybrid picked %s, want the fast zone", hybrid.AZ)
	}
	if hybrid.CostUSD >= baseline.CostUSD {
		t.Errorf("hybrid $%.4f not cheaper than baseline $%.4f", hybrid.CostUSD, baseline.CostUSD)
	}
	savings := 1 - hybrid.CostUSD/baseline.CostUSD
	if savings < 0.05 || savings > 0.6 {
		t.Errorf("savings = %.1f%%, outside plausible band", savings*100)
	}
}

func TestCharacterizeStoresGroundTruth(t *testing.T) {
	rt := tinyRuntime(t)
	err := rt.Do(func(p *sim.Proc) error {
		ch, trail, err := rt.Characterize(p, "t1-slow")
		if err != nil {
			return err
		}
		if len(trail) < 3 {
			t.Errorf("only %d polls to saturation", len(trail))
		}
		az, _ := rt.Cloud().AZ("t1-slow")
		if ape := charact.APE(ch.Dist(), az.TrueMix()); ape > 12 {
			t.Errorf("characterization APE = %.1f%%", ape)
		}
		if _, ok := rt.Store().Get("t1-slow", rt.Env().Now()); !ok {
			t.Error("characterization not stored")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRefreshRespectsTTL(t *testing.T) {
	rt := tinyRuntime(t)
	err := rt.Do(func(p *sim.Proc) error {
		cost, err := rt.Refresh(p, []string{"t1-fast"}, 3)
		if err != nil {
			return err
		}
		if cost <= 0 {
			t.Error("refresh cost not tracked")
		}
		if _, ok := rt.Store().Get("t1-fast", rt.Env().Now()); !ok {
			t.Error("fresh characterization missing")
		}
		p.Sleep(25 * time.Hour)
		if _, ok := rt.Store().Get("t1-fast", rt.Env().Now()); ok {
			t.Error("characterization survived past TTL")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnsureSamplerEndpointsIdempotent(t *testing.T) {
	rt := tinyRuntime(t)
	if err := rt.EnsureSamplerEndpoints("t1-slow"); err != nil {
		t.Fatal(err)
	}
	if err := rt.EnsureSamplerEndpoints("t1-slow"); err != nil {
		t.Fatalf("second ensure failed: %v", err)
	}
}

func TestDoPropagatesClientError(t *testing.T) {
	rt := tinyRuntime(t)
	sentinel := &testError{}
	if err := rt.Do(func(p *sim.Proc) error { return sentinel }); err != sentinel {
		t.Fatalf("err = %v", err)
	}
}

type testError struct{}

func (*testError) Error() string { return "sentinel" }
