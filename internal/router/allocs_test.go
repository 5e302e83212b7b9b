package router

import (
	"runtime"
	"testing"

	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// TestBurstAllocs pins the allocation budget of the burst path: one cold,
// unpaced hybrid burst of 500 zipper invocations on the test world, which
// bans the slow CPU and so takes about 1.6 declines and 2.6 attempts per
// completion, stays within 22 heap allocations per invocation. That covers
// every attempt, decline and the cloudsim invocation under each (31.97
// while cloudsim allocated a record and four method values a request, 20.94
// once it recycled records with one bound continuation each, 20.96 once
// voided keep-alive timers were dropped instead of queued; 21.7-21.8 under
// the race detector, which is what keeps the budget at 22). An upper
// bound: work that removes allocations only tightens it.
func TestBurstAllocs(t *testing.T) {
	const n, budget = 500, 22
	env, cloud, r := world(t)
	seedStore(cloud, r, "slow-az", "fast-az")
	trainPerf(r)
	spec := BurstSpec{Strategy: Hybrid{}, Workload: workload.Zipper, N: n, Candidates: []string{"slow-az", "fast-az"}}
	var m0, m1 runtime.MemStats
	var res BurstResult
	env.Go("burst", func(p *sim.Proc) error {
		runtime.ReadMemStats(&m0)
		var err error
		res, err = r.Burst(p, spec)
		runtime.ReadMemStats(&m1)
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("burst completed %d of %d", res.Completed, n)
	}
	allocs := float64(m1.Mallocs - m0.Mallocs)
	per := allocs / n
	t.Logf("%.2f allocations per invocation (%.0f in all; %d attempts, %d declined)", per, allocs, res.Attempts, res.Declined)
	if per > budget {
		t.Errorf("a burst allocates %.2f times per invocation, budget is %d", per, budget)
	}
}
