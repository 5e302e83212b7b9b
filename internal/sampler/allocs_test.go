package sampler

import (
	"runtime"
	"testing"

	"skyfaas/internal/sim"
)

// quickCharacterization builds the test world and runs a ten-poll quick
// characterization on it to the end of the queue, returning the requests
// the trail counts. It fails the test on any failed request, so the
// per-request figures below always divide by a full set of polls.
func quickCharacterization(t *testing.T) int {
	const polls = 10
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
	requests := 0
	for _, res := range trail {
		if res.Failed > 0 {
			t.Fatalf("poll %d: %d of %d requests failed", res.Endpoint, res.Failed, res.Requested)
		}
		requests += res.Requested
	}
	return requests
}

// TestPollAllocs pins the sampler's allocation budget: a ten-poll quick
// characterization on the test world, world build and drain included,
// stays within 2 heap allocations per request. Under the race detector,
// where sync.Pool drops a quarter of its puts, the budget is 2.8. Each
// budget is the highest figure measured plus a margin of about 0.3. An
// upper bound: work that removes allocations only tightens it.
func TestPollAllocs(t *testing.T) {
	budget := 2.0
	if raceEnabled {
		budget = 2.8
	}
	requests := 0
	allocs := testing.AllocsPerRun(1, func() { requests = quickCharacterization(t) })
	per := allocs / float64(requests)
	t.Logf("%.2f allocations per request (%.0f in all)", per, allocs)
	if per > budget {
		t.Errorf("a quick characterization allocates %.2f times per request, budget is %.1f", per, budget)
	}
}

// TestPollBytes pins the bytes the same characterization allocates per
// request, which TestPollAllocs cannot see: a report slab per poll is one
// allocation but most of a poll's bytes. It is the TotalAlloc delta of one
// run after a warm-up run, within 228 B per request, and 370 B under the
// race detector, whose random pool drops spread it. Each budget is the
// highest figure measured plus a margin of about 25 B.
//
// TotalAlloc counts a small object when its span leaves a processor's
// cache, so the processors a run hopped between moved the figure by up to
// 55 B per request; like AllocsPerRun, the measurement runs on one.
func TestPollBytes(t *testing.T) {
	budget := 228.0
	if raceEnabled {
		budget = 370
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	quickCharacterization(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	requests := quickCharacterization(t)
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(requests)
	t.Logf("%.0f bytes per request (%d in all)", per, after.TotalAlloc-before.TotalAlloc)
	if per > budget {
		t.Errorf("a quick characterization allocates %.0f bytes per request, budget is %.0f", per, budget)
	}
}
