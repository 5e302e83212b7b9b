//go:build !race

package experiments

import "testing"

// TestMeshLoadAllocs pins the allocation budget of the bare cloudsim path:
// the 41-region mesh load on the single-queue engine, world build included,
// stays within 21 heap allocations per invocation (20.1 when written). An
// upper bound: work that removes allocations only tightens it. The race
// build allocates more (23.6 per invocation), so the pin is compiled only
// without it.
func TestMeshLoadAllocs(t *testing.T) {
	const invocations, budget = 40_000, 21
	allocs := testing.AllocsPerRun(1, func() {
		st, err := RunMeshLoad(MeshLoadConfig{Seed: 5, Shards: 1, Invocations: invocations})
		if err != nil {
			t.Fatal(err)
		}
		if st.Invocations != invocations {
			t.Fatalf("completed %d of %d invocations", st.Invocations, invocations)
		}
	})
	if per := allocs / invocations; per > budget {
		t.Errorf("mesh load allocates %.2f times per invocation (%.0f in all), budget is %d", per, allocs, budget)
	}
}
