package experiments

import (
	"testing"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/cpu"
	"skyfaas/internal/router"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// TestDebugFocusBurst bands one paper-scale focus-fastest burst on
// us-west-1b, Fig. 10's setting: every completion lands on the CPU the perf
// model ranks fastest, the burst costs less than the baseline one, and it
// pays 2-3.5 declined placements per completion (the figure's 400-700
// attempts per 200 completions).
func TestDebugFocusBurst(t *testing.T) {
	const az, n = "us-west-1b", 1000
	var base, focus router.BurstResult
	var fastest cpu.Kind
	err := inWorld(core.Config{Seed: 42, CloudOpts: cloudsim.Options{HorizonDays: 4}}, func(rt *core.Runtime, p *sim.Proc) (err error) {
		if _, err := rt.Router().Profile(p, workload.Zipper, []string{az}, 1200, 0); err != nil {
			return err
		}
		p.Sleep(6 * time.Minute)
		if _, err := rt.Refresh(p, []string{az}, 6); err != nil {
			return err
		}
		if base, err = rt.Run(p, router.BurstSpec{Strategy: router.Baseline{AZ: az}, Workload: workload.Zipper, N: n}); err != nil {
			return err
		}
		focus, err = rt.Run(p, router.BurstSpec{Strategy: router.FocusFastest{AZ: az}, Workload: workload.Zipper, N: n})
		fastest = rt.Perf().Kinds(workload.Zipper)[0]
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if focus.Completed != n || focus.PerCPU[fastest] != n {
		t.Errorf("focus completed %d, %d of them on %v (ranked fastest): %v", focus.Completed, focus.PerCPU[fastest], fastest, focus.PerCPU)
	}
	if focus.CostUSD >= base.CostUSD {
		t.Errorf("focus cost $%.4f, baseline $%.4f", focus.CostUSD, base.CostUSD)
	}
	if perCompletion := float64(focus.Declined) / n; perCompletion < 2 || perCompletion > 3.5 {
		t.Errorf("focus declined %.2f placements per completion, Fig. 10's band is 2-3.5", perCompletion)
	}
}

// TestDebugHybridLogReg bands one EX-5 day for logistic_regression: hybrid
// hops from the fixed us-west-1b to sa-east-1a, the zone with the largest
// share of the fastest CPU, and costs less than the baseline there.
func TestDebugHybridLogReg(t *testing.T) {
	hop := []string{"us-west-1a", "us-west-1b", "sa-east-1a"}
	var base, hyb router.BurstResult
	err := inWorld(core.Config{Seed: 42, CloudOpts: cloudsim.Options{HorizonDays: 4}}, func(rt *core.Runtime, p *sim.Proc) (err error) {
		if _, err := rt.ProfileWorkloads(p, []workload.ID{workload.LogisticRegression}, EX4Zones(), 2000); err != nil {
			return err
		}
		p.Sleep(6 * time.Minute)
		if _, err := rt.Refresh(p, hop, 6); err != nil {
			return err
		}
		if base, err = rt.Run(p, router.BurstSpec{
			Strategy: router.Baseline{AZ: "us-west-1b"}, Workload: workload.LogisticRegression, N: 1000, Candidates: hop,
		}); err != nil {
			return err
		}
		hyb, err = rt.Run(p, router.BurstSpec{
			Strategy: router.Hybrid{}, Workload: workload.LogisticRegression, N: 1000, Candidates: hop,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if hyb.AZ != "sa-east-1a" || hyb.Completed != 1000 {
		t.Errorf("hybrid completed %d in %q, want 1000 in sa-east-1a", hyb.Completed, hyb.AZ)
	}
	if hyb.CostUSD >= base.CostUSD {
		t.Errorf("hybrid cost $%.4f, baseline $%.4f", hyb.CostUSD, base.CostUSD)
	}
}
