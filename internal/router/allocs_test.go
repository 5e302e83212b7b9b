package router

import (
	"runtime"
	"testing"

	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// TestBurstAllocs pins the allocation budget of the burst path: one cold,
// unpaced hybrid burst of 500 zipper invocations on the test world, which
// bans the slow CPU and so declines and retries, stays within 22 heap
// allocations per invocation. That covers every attempt, decline and the
// cloudsim invocation under each. The race detector adds allocations of
// its own, and the budget is set to hold under it too. An upper bound: work
// that removes allocations only tightens it.
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
