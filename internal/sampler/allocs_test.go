package sampler

import (
	"testing"

	"skyfaas/internal/sim"
)

// TestPollAllocs pins the sampler's allocation budget: a ten-poll quick
// characterization on the test world, world build and drain included,
// stays within 6 heap allocations per request (18.06 before reports were
// written once into per-poll slots and requests became one record each,
// 13.34 after; 5.02 once the tree's internal nodes became fan-out
// continuations instead of processes and records were recycled; 4.96 once
// voided keep-alive timers were dropped instead of queued, 5.65-5.72
// under the race detector, where sync.Pool drops a quarter of its puts). An
// upper bound: work that removes allocations only tightens it.
func TestPollAllocs(t *testing.T) {
	const polls, budget = 10, 6
	requests := 0
	allocs := testing.AllocsPerRun(1, func() {
		env, _, s := world(t, mixedAZ(4096))
		var trail []PollResult
		env.Go("quick", func(p *sim.Proc) error {
			var err error
			_, trail, err = s.CharacterizeQuick(p, "r1-az-a", polls)
			return err
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		requests = 0
		for _, res := range trail {
			if res.Failed > 0 {
				t.Fatalf("poll %d: %d of %d requests failed", res.Endpoint, res.Failed, res.Requested)
			}
			requests += res.Requested
		}
	})
	per := allocs / float64(requests)
	t.Logf("%d polls: %.2f allocations per request (%.0f in all)", polls, per, allocs)
	if per > budget {
		t.Errorf("a quick characterization allocates %.2f times per request, budget is %d", per, budget)
	}
}
