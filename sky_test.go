package sky

import (
	"testing"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

func TestDefaultCatalogExposed(t *testing.T) {
	catalog := DefaultCatalog()
	if len(catalog) != 41 {
		t.Fatalf("catalog regions = %d, want 41", len(catalog))
	}
}

func TestWorkloadsExposed(t *testing.T) {
	if got := len(Workloads()); got != 12 {
		t.Fatalf("workloads = %d, want 12 (Table 1)", got)
	}
}

func TestStrategyAliasesExposed(t *testing.T) {
	// Every routing strategy is reachable through the facade.
	strategies := []Strategy{
		Baseline{AZ: "z"}, Regional{}, RetrySlow{AZ: "z"},
		FocusFastest{AZ: "z"}, Hybrid{}, LatencyBound{}, CostAware{},
	}
	names := map[string]bool{}
	for _, s := range strategies {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
		names[s.Name()] = true
	}
	if len(names) != len(strategies) {
		t.Errorf("duplicate strategy names: %v", names)
	}
}

func TestAPEExposed(t *testing.T) {
	a := Dist{cpu.Xeon25: 1}
	b := Dist{cpu.Xeon30: 1}
	if got := APE(a, b); got != 100 {
		t.Fatalf("APE = %v", got)
	}
}

// TestPublicQuickstart exercises the README quickstart path end to end on
// a scoped-down world.
func TestPublicQuickstart(t *testing.T) {
	catalog := []RegionSpec{{
		Provider: DefaultCatalog()[0].Provider, // AWS
		Name:     "demo-region",
		Loc:      geo.Coord{Lat: 40, Lon: -80},
		AZs: []AZSpec{
			{Name: "demo-a", PoolFIs: 2048,
				Mix: map[cpu.Kind]float64{cpu.Xeon25: 0.6, cpu.Xeon30: 0.4}},
			{Name: "demo-b", PoolFIs: 2048,
				Mix: map[cpu.Kind]float64{cpu.Xeon25: 0.7, cpu.EPYC: 0.3}},
		},
	}}
	rt, err := New(Config{
		Seed:    7,
		Catalog: catalog,
		SamplerCfg: SamplerConfig{
			Endpoints: 30, PollSize: 84, Branch: 4,
			InterPollPause: 500 * time.Millisecond,
		},
		SkipMesh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	azs := []string{"demo-a", "demo-b"}
	err = rt.Do(func(p *sim.Proc) error {
		if _, err := rt.Refresh(p, azs, 3); err != nil {
			return err
		}
		if _, err := rt.ProfileWorkloads(p, []workload.ID{workload.Zipper}, azs, 450); err != nil {
			return err
		}
		res, err := rt.Run(p, BurstSpec{
			Strategy:   Hybrid{},
			Workload:   workload.Zipper,
			N:          100,
			Candidates: azs,
		})
		if err != nil {
			return err
		}
		if res.Completed != 100 {
			t.Errorf("completed = %d", res.Completed)
		}
		if res.AZ != "demo-a" {
			t.Errorf("hybrid picked %s; demo-a has the 3.0GHz pool", res.AZ)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPublicChaosQuickstart exercises the fault-injection and resilient
// routing surface through the facade: arm a throttle storm via the
// injector, then route a burst with the default resilience posture and
// watch it fail over to the healthy zone.
func TestPublicChaosQuickstart(t *testing.T) {
	catalog := []RegionSpec{{
		Provider: DefaultCatalog()[0].Provider, // AWS
		Name:     "demo-region",
		Loc:      geo.Coord{Lat: 40, Lon: -80},
		AZs: []AZSpec{
			{Name: "demo-a", PoolFIs: 2048,
				Mix: map[cpu.Kind]float64{cpu.Xeon25: 0.6, cpu.Xeon30: 0.4}},
			{Name: "demo-b", PoolFIs: 2048,
				Mix: map[cpu.Kind]float64{cpu.Xeon25: 0.7, cpu.EPYC: 0.3}},
		},
	}}
	rt, err := New(Config{
		Seed:    7,
		Catalog: catalog,
		SamplerCfg: SamplerConfig{
			Endpoints: 30, PollSize: 84, Branch: 4,
			InterPollPause: 500 * time.Millisecond,
		},
		SkipMesh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ScenarioNames()) != 3 {
		t.Fatalf("scenarios = %d, want 3", len(ScenarioNames()))
	}
	azs := []string{"demo-a", "demo-b"}
	err = rt.Do(func(p *sim.Proc) error {
		if _, err := rt.Refresh(p, azs, 3); err != nil {
			return err
		}
		if _, err := rt.ProfileWorkloads(p, []workload.ID{workload.Zipper}, azs, 450); err != nil {
			return err
		}
		sc, ok := ScenarioByName("throttle-storm", "demo-a")
		if !ok {
			t.Error("throttle-storm scenario missing")
			return nil
		}
		if _, err := rt.Chaos().InjectScenario(sc); err != nil {
			return err
		}
		res, err := rt.Run(p, BurstSpec{
			Strategy:   Hybrid{},
			Workload:   workload.Zipper,
			N:          100,
			Candidates: azs,
			Resilience: DefaultResilience(),
		})
		if err != nil {
			return err
		}
		if res.SuccessRate() < 0.95 {
			t.Errorf("resilient success rate = %.2f under storm", res.SuccessRate())
		}
		if res.Failovers == 0 {
			t.Error("no failover away from the stormed zone")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
