package experiments

import "testing"

// TestMeshLoadAllocs pins the allocation budget of the bare cloudsim path:
// the 41-region mesh load on the single-queue engine, world build included,
// stays within 3.8 heap allocations per invocation (10.23 when written,
// 8.25 once a request became one record and keep-alive timers a lane per
// zone, 3.25 once records were recycled through a pool with one bound
// continuation each, 3.23 once one keep-alive lane per cloud dropped voided
// timers, 3.75 under the race detector; 3.20 once zones drew their hosts on
// first use, 3.71-3.73 under the race detector). An upper bound: work that
// removes allocations only tightens it.
func TestMeshLoadAllocs(t *testing.T) {
	const invocations, budget = 40_000, 3.8
	allocs := testing.AllocsPerRun(1, func() {
		st, err := RunMeshLoad(MeshLoadConfig{Seed: 5, Invocations: invocations})
		if err != nil {
			t.Fatal(err)
		}
		if st.Invocations != invocations {
			t.Fatalf("completed %d of %d invocations", st.Invocations, invocations)
		}
	})
	per := allocs / invocations
	t.Logf("%.2f allocations per invocation (%.0f in all)", per, allocs)
	if per > budget {
		t.Errorf("mesh load allocates %.2f times per invocation (%.0f in all), budget is %.1f", per, allocs, budget)
	}
}
