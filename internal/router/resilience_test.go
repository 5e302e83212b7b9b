package router

import (
	"testing"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cpu"
	"skyfaas/internal/faas"
	"skyfaas/internal/rng"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// stormBurst runs one burst against a throttle-stormed slow-az and returns
// the result. The storm is armed before the burst starts and outlives it.
func stormBurst(t *testing.T, spec BurstSpec) BurstResult {
	t.Helper()
	env, cloud, r := world(t)
	seedStore(cloud, r, "slow-az", "fast-az")
	r.Perf().Observe(workload.Sha1Hash, cpu.Xeon30, 2400)
	r.Perf().Observe(workload.Sha1Hash, cpu.Xeon25, 2800)
	var res BurstResult
	env.Go("storm-burst", func(p *sim.Proc) error {
		az, _ := cloud.AZ("slow-az")
		az.SetThrottleStorm(0.75)
		var err error
		res, err = r.Burst(p, spec)
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResilientBurstAbandonsUnderStorm: a pinned burst with a bounded retry
// budget and no failover loses roughly 1-(1-0.75^3) of its slots to the
// storm instead of retrying forever.
func TestResilientBurstAbandonsUnderStorm(t *testing.T) {
	res := stormBurst(t, BurstSpec{
		Strategy:   Baseline{AZ: "slow-az"},
		Workload:   workload.Sha1Hash,
		N:          200,
		Candidates: []string{"slow-az", "fast-az"},
		Resilience: &Resilience{NoBreaker: true},
	})
	if res.Completed+res.Abandoned != 200 {
		t.Fatalf("completed %d + abandoned %d != 200", res.Completed, res.Abandoned)
	}
	if res.Abandoned == 0 {
		t.Fatal("no slots abandoned under a 75% storm with 3 attempts")
	}
	// P(success) = 1 - 0.75^3 ≈ 0.578; allow generous slack around it.
	if sr := res.SuccessRate(); sr < 0.40 || sr > 0.75 {
		t.Errorf("success rate %.2f far from expected ≈0.58", sr)
	}
	if res.Failovers != 0 {
		t.Errorf("failovers = %d without a breaker", res.Failovers)
	}
}

// TestResilientBurstFailsOverUnderStorm: with the breaker on and failover
// enabled, the burst escapes the stormed zone and completes nearly all
// slots in the healthy one.
func TestResilientBurstFailsOverUnderStorm(t *testing.T) {
	res := stormBurst(t, BurstSpec{
		Strategy:   Baseline{AZ: "slow-az"},
		Workload:   workload.Sha1Hash,
		N:          200,
		Candidates: []string{"slow-az", "fast-az"},
		Resilience: DefaultResilience(),
	})
	if res.Failovers == 0 {
		t.Fatal("burst never failed over away from the stormed zone")
	}
	if sr := res.SuccessRate(); sr < 0.95 {
		t.Errorf("success rate %.2f under failover, want >= 0.95", sr)
	}
	// Most completions should have landed in the healthy fast-az hardware.
	if res.PerCPU[cpu.Xeon30] == 0 {
		t.Errorf("no completions on fast-az hardware: %v", res.PerCPU)
	}
}

// TestResilientBurstDeterminism: two identically-seeded runs of the same
// chaotic burst must agree bit-for-bit, jittered backoff included.
func TestResilientBurstDeterminism(t *testing.T) {
	run := func() BurstResult {
		return stormBurst(t, BurstSpec{
			Strategy:   Baseline{AZ: "slow-az"},
			Workload:   workload.Sha1Hash,
			N:          150,
			Candidates: []string{"slow-az", "fast-az"},
			Resilience: DefaultResilience(),
		})
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Abandoned != b.Abandoned ||
		a.Attempts != b.Attempts || a.Failed != b.Failed ||
		a.Failovers != b.Failovers || a.CostUSD != b.CostUSD ||
		a.Elapsed != b.Elapsed {
		t.Fatalf("same-seed runs diverged:\n a=%+v\n b=%+v", a, b)
	}
}

// TestBackoffJitterDeterminism: the jittered schedule is a pure function of
// the stream's seed.
func TestBackoffJitterDeterminism(t *testing.T) {
	p := faas.RetryPolicy{MaxAttempts: 5, JitterFrac: 0.5}
	seq := func(seed uint64) []time.Duration {
		src := rng.New(seed)
		out := make([]time.Duration, 0, 4)
		for n := 1; n <= 4; n++ {
			out = append(out, p.Backoff(n, src))
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed jitter diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter (suspicious)")
	}
	// Un-jittered schedule starts at the 50 ms base, grows exponentially
	// and caps: 50 ms × 2^7 = 6.4 s is past the 5 s cap.
	flat := faas.RetryPolicy{}
	if d := flat.Backoff(1, nil); d != 50*time.Millisecond {
		t.Errorf("backoff(1) = %v", d)
	}
	if d := flat.Backoff(2, nil); d != 100*time.Millisecond {
		t.Errorf("backoff(2) = %v", d)
	}
	if d := flat.Backoff(7, nil); d != 3200*time.Millisecond {
		t.Errorf("backoff(7) = %v", d)
	}
	if d := flat.Backoff(8, nil); d != 5*time.Second {
		t.Errorf("backoff(8) = %v, want the 5s cap", d)
	}
}

// TestBurstHedging: on a zone with an injected cold-start spike, hedged
// slots finish and the loser accounting stays consistent.
func TestBurstHedging(t *testing.T) {
	env, cloud, r := world(t)
	seedStore(cloud, r, "slow-az", "fast-az")
	var res BurstResult
	env.Go("hedge-burst", func(p *sim.Proc) error {
		az, _ := cloud.AZ("slow-az")
		az.SetColdStartSpike(20) // multi-second cold starts: hedges fire
		var err error
		res, err = r.Burst(p, BurstSpec{
			Strategy:   Baseline{AZ: "slow-az"},
			Workload:   workload.Sha1Hash,
			N:          80,
			Resilience: &Resilience{NoBreaker: true, Hedge: true},
		})
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Completed != 80 {
		t.Fatalf("completed = %d, want 80 (abandoned %d)", res.Completed, res.Abandoned)
	}
	if res.Hedges == 0 {
		t.Fatal("no hedges fired despite 20x cold starts")
	}
	if res.HedgeWins > res.Hedges {
		t.Fatalf("hedge wins %d > hedges %d", res.HedgeWins, res.Hedges)
	}
	// Every request issued is accounted: N completions plus one response per
	// hedge loser (counted in Attempts when it arrives).
	if res.Attempts < res.Completed {
		t.Fatalf("attempts %d < completed %d", res.Attempts, res.Completed)
	}
}

// TestLegacyBurstUnchanged: a nil Resilience must reproduce the original
// burst semantics — unlimited retries, nothing abandoned.
func TestLegacyBurstUnchanged(t *testing.T) {
	res := stormBurst(t, BurstSpec{
		Strategy: Baseline{AZ: "slow-az"},
		Workload: workload.Sha1Hash,
		N:        100,
	})
	if res.Completed != 100 || res.Abandoned != 0 {
		t.Fatalf("legacy burst: completed %d abandoned %d", res.Completed, res.Abandoned)
	}
	if res.Failed == 0 {
		t.Error("storm produced no failures (injection broken?)")
	}
}

// TestStaleCharacterizationSurfaced covers the Decision.Lookup staleness
// contract and the strategies' deliberate degraded modes.
func TestStaleCharacterizationSurfaced(t *testing.T) {
	store := charact.NewStore(time.Hour)
	taken := testEpoch
	store.Put(charact.Characterization{
		AZ: "z", Taken: taken,
		Counts: charact.Counts{cpu.Xeon30: 600, cpu.Xeon25: 250, cpu.EPYC: 150},
	})
	perf := NewPerfModel()
	perf.Observe(workload.Zipper, cpu.Xeon30, 2400)
	perf.Observe(workload.Zipper, cpu.Xeon25, 2820)
	perf.Observe(workload.Zipper, cpu.EPYC, 3900)

	fresh := Decision{Workload: workload.Zipper, Store: store, Perf: perf,
		Now: taken.Add(30 * time.Minute)}
	stale := Decision{Workload: workload.Zipper, Store: store, Perf: perf,
		Now: taken.Add(3 * time.Hour)}

	if info := fresh.Lookup("z"); !info.Known || !info.Fresh || info.Age != 30*time.Minute {
		t.Fatalf("fresh lookup = %+v", info)
	}
	info := stale.Lookup("z")
	if !info.Known || info.Fresh {
		t.Fatalf("stale lookup = %+v, want known but not fresh", info)
	}
	if info.Age != 3*time.Hour {
		t.Errorf("stale age = %v", info.Age)
	}
	if info.Dist.Share(cpu.Xeon30) == 0 {
		t.Error("stale lookup dropped the distribution")
	}
	if unknown := stale.Lookup("ghost"); unknown.Known {
		t.Errorf("ghost zone lookup = %+v", unknown)
	}

	// Fresh: full focus bans everything but the fastest.
	if b := (FocusFastest{AZ: "z"}).Ban(fresh, "z"); !b.Has(cpu.Xeon25) || !b.Has(cpu.EPYC) {
		t.Errorf("fresh focus bans = %v", b)
	}
	// Stale: deliberate fallback to the conservative slowest-N ban — the
	// old code returned nil here (stale treated as uncharacterized).
	b := (FocusFastest{AZ: "z"}).Ban(stale, "z")
	if b == 0 {
		t.Fatal("stale focus-fastest lost its ban signal entirely")
	}
	if !b.Has(cpu.EPYC) {
		t.Errorf("stale focus bans = %v, want slowest banned", b)
	}
	if b.Has(cpu.Xeon30) {
		t.Errorf("stale focus banned the fastest kind: %v", b)
	}
	// Hybrid degrades the same way.
	if b := (Hybrid{}).Ban(stale, "z"); b == 0 || !b.Has(cpu.EPYC) || b.Has(cpu.Xeon30) {
		t.Errorf("stale hybrid bans = %v", b)
	}
}

// TestBestAZPrefersFreshThenStale: ranking falls back to stale estimates
// before falling back to blind candidate order.
func TestBestAZPrefersFreshThenStale(t *testing.T) {
	store := charact.NewStore(time.Hour)
	now := testEpoch.Add(2 * time.Hour)
	put := func(az string, taken time.Time, fast int) {
		store.Put(charact.Characterization{
			AZ: az, Taken: taken,
			Counts: charact.Counts{cpu.Xeon30: fast, cpu.Xeon25: 1000 - fast},
		})
	}
	perf := NewPerfModel()
	perf.Observe(workload.Zipper, cpu.Xeon30, 2400)
	perf.Observe(workload.Zipper, cpu.Xeon25, 3600)

	// "good-stale" is much better than "bad-stale", both expired; "meh" is
	// fresh but mediocre.
	put("good-stale", testEpoch, 900)
	put("bad-stale", testEpoch, 100)
	put("meh", now.Add(-10*time.Minute), 400)

	dec := Decision{Workload: workload.Zipper, Store: store, Perf: perf, Now: now,
		Candidates: []string{"bad-stale", "good-stale", "meh"}}
	if az := bestAZ(dec); az != "meh" {
		t.Errorf("fresh zone not preferred: picked %s", az)
	}
	// Without any fresh candidate, stale ranking beats candidate order.
	dec.Candidates = []string{"bad-stale", "good-stale"}
	if az := bestAZ(dec); az != "good-stale" {
		t.Errorf("stale ranking ignored: picked %s (old code blindly picked bad-stale)", az)
	}
	// Fully unknown zones: first candidate.
	dec.Candidates = []string{"ghost-1", "ghost-2"}
	if az := bestAZ(dec); az != "ghost-1" {
		t.Errorf("unknown-zone fallback picked %s", az)
	}
}
