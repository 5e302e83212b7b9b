package experiments

import "testing"

// TestMeshLoadAllocs pins the allocation budget of the bare cloudsim path:
// the 41-region mesh load on the single-queue engine, world build included,
// stays within 3.8 heap allocations per invocation. The race detector adds
// allocations of its own, and the budget is set to hold under it too. An
// upper bound: work that removes allocations only tightens it.
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
