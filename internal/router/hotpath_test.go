package router

import (
	"testing"

	"skyfaas/internal/cpu"
	"skyfaas/internal/workload"
)

// trainPerf gives the perf model enough observations to rank every kind
// the test zones expose, so ban logic takes its full path.
func trainPerf(r *Router) {
	r.Perf().Observe(workload.Zipper, cpu.Xeon30, 900)
	r.Perf().Observe(workload.Zipper, cpu.Xeon25, 1300)
	r.Perf().Observe(workload.Zipper, cpu.EPYC, 1800)
}

// TestRouteHotPathAllocs pins the allocation budget of the per-invocation
// route path: once a DecisionTable is built, picking the route and
// materializing the call must not allocate — for the pinned strategies
// (Baseline, RetrySlow, FocusFastest) and the cheapest-zone strategies
// (Regional, Hybrid) alike.
func TestRouteHotPathAllocs(t *testing.T) {
	_, cloud, r := world(t)
	seedStore(cloud, r, "slow-az", "fast-az")
	trainPerf(r)
	dec := Decision{
		Workload:   workload.Zipper,
		Candidates: []string{"slow-az", "fast-az"},
		Store:      r.Store(),
		Perf:       r.Perf(),
		Now:        cloud.Env().Now(),
	}
	strategies := []Strategy{
		Baseline{AZ: "slow-az"},
		RetrySlow{AZ: "slow-az"},
		FocusFastest{AZ: "fast-az"},
		Regional{},
		Hybrid{},
	}
	for _, s := range strategies {
		tbl, ok := BuildDecisionTable(s, dec, r.mesh, 2048, 150)
		if !ok {
			t.Fatalf("%s: no decision table", s.Name())
		}
		var az string
		var banned cpu.Mask
		allocs := testing.AllocsPerRun(1000, func() {
			az, banned = tbl.Pick()
			call := tbl.Call(true)
			if call.AZ != az {
				t.Fatal("call zone mismatch")
			}
			call = tbl.Call(false)
			_ = call
		})
		if allocs != 0 {
			t.Errorf("%s: route hot path allocates %.1f allocs/op, budget is 0", s.Name(), allocs)
		}
		if az == "" {
			t.Errorf("%s: empty zone", s.Name())
		}
		_ = banned
	}
}

// TestDecisionTableFreezesStrategy: the table must match what the strategy
// would decide live, for both a pinned and a ranking strategy.
func TestDecisionTableFreezesStrategy(t *testing.T) {
	_, cloud, r := world(t)
	seedStore(cloud, r, "slow-az", "fast-az")
	trainPerf(r)
	dec := Decision{
		Workload:   workload.Zipper,
		Candidates: []string{"slow-az", "fast-az"},
		Store:      r.Store(),
		Perf:       r.Perf(),
		Now:        cloud.Env().Now(),
	}
	for _, s := range []Strategy{FocusFastest{AZ: "fast-az"}, Hybrid{}} {
		tbl, ok := BuildDecisionTable(s, dec, r.mesh, 2048, 150)
		if !ok {
			t.Fatalf("%s: no table", s.Name())
		}
		wantAZ := s.PickAZ(dec)
		if tbl.AZ != wantAZ {
			t.Errorf("%s: table az %s, live az %s", s.Name(), tbl.AZ, wantAZ)
		}
		if want := s.Ban(dec, wantAZ); tbl.Banned != want {
			t.Errorf("%s: table bans %v, live bans %v", s.Name(), tbl.Banned, want)
		}
		call := tbl.Call(true)
		if call.AZ != wantAZ || call.Function != tbl.Endpoint.Function {
			t.Errorf("%s: call %+v does not target the decision", s.Name(), call)
		}
		if open := tbl.Call(false); open.Work == nil {
			t.Errorf("%s: open call lost its behavior", s.Name())
		}
	}
}
