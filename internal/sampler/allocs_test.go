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
// stays within 5 heap allocations per request (18.06 before reports were
// written once into per-poll slots and requests became one record each,
// 13.34 after; 5.02 once the tree's internal nodes became fan-out
// continuations instead of processes and records were recycled; 4.96 once
// voided keep-alive timers were dropped instead of queued, 5.65-5.72
// under the race detector, where sync.Pool drops a quarter of its puts;
// 3.78 once a run shared one report slab and a tree node became one record
// implementing the fan-out interface, 4.45-4.52 under the race detector;
// 1.90 once an instance stopped carrying a formatted name, 2.56-2.66 under
// the race detector; 1.73 once zones drew their hosts on first use and
// registering a series allocated only when it was new, 2.41-2.51 under the
// race detector). Each budget is the highest figure measured plus a margin
// of about 0.3, and below the lowest figure before. An upper bound: work
// that removes allocations only tightens it.
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
// run after a warm-up run: 377 B per request while every poll allocated
// its own slab and the trail kept it, 262-268 B once a run shared one (a
// collection during the run empties the record pool), 207 B once an
// instance stopped carrying a formatted name, 205 B once zones drew their
// hosts on first use. Under the race detector the pool's random drops
// spread it: 518-541 B per request, then 411-468, then 325-390, then
// 327-344. Each budget is the highest figure measured plus a margin (23 B,
// and 26 B under the race detector), and below the lowest figure before.
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
