package router

import (
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cpu"
	"skyfaas/internal/workload"
)

// Strategy decides where a burst runs and which CPUs it refuses to run on.
// The three paper strategies (§3.5) plus the fixed baseline are provided;
// all decisions consume only characterization-store and perf-model data.
type Strategy interface {
	// Name labels the strategy in experiment output.
	Name() string
	// PickAZ chooses the zone for a burst from the candidates.
	PickAZ(dec Decision) string
	// Ban returns the CPU kinds the workload must not run on in the
	// chosen zone (the retry set) as an allocation-free bitmask; the zero
	// Mask bans nothing.
	Ban(dec Decision, az string) cpu.Mask
}

// Decision carries everything a strategy may consult.
type Decision struct {
	Workload   workload.ID
	Candidates []string
	Store      *charact.Store
	Perf       *PerfModel
	Now        time.Time
}

// DistInfo is what the store knows about one zone at decision time: the
// last characterized distribution, its age, and whether it is still fresh
// under the store's lifespan. Known=false means the zone has never been
// characterized at all.
type DistInfo struct {
	Dist  charact.Dist
	Age   time.Duration
	Fresh bool
	Known bool
}

// Lookup surfaces az's characterization together with its staleness.
// Strategies used to see stale zones as plain uncharacterized (the old
// fresh-only dist helper returned nothing), which silently discarded the
// ban/ranking signal a drifted-but-recent characterization still carries;
// Lookup lets them degrade deliberately instead.
func (d Decision) Lookup(az string) DistInfo {
	ch, ok := d.Store.Last(az)
	if !ok {
		return DistInfo{}
	}
	return DistInfo{
		Dist:  ch.Dist(),
		Age:   ch.Age(d.Now),
		Fresh: d.Store.Fresh(ch, d.Now),
		Known: true,
	}
}

// ---------------------------------------------------------------------------

// Baseline pins every burst to one zone with no retries — the paper's
// comparison point.
type Baseline struct {
	AZ string
}

// Name implements Strategy.
func (b Baseline) Name() string { return "baseline" }

// PickAZ implements Strategy.
func (b Baseline) PickAZ(Decision) string { return b.AZ }

// Ban implements Strategy.
func (b Baseline) Ban(Decision, string) cpu.Mask { return 0 }

// ---------------------------------------------------------------------------

// Regional routes each burst to the candidate zone with the best expected
// runtime under its current characterization ("region hopping"). No
// retries.
type Regional struct{}

// Name implements Strategy.
func (Regional) Name() string { return "regional" }

// PickAZ implements Strategy.
func (Regional) PickAZ(dec Decision) string { return bestAZ(dec) }

// Ban implements Strategy.
func (Regional) Ban(Decision, string) cpu.Mask { return 0 }

// bestAZ returns the candidate with the lowest expected runtime. Freshly
// characterized zones are ranked first among themselves; when none is
// fresh, stale characterizations still rank the candidates — an outdated
// estimate beats the blind first-candidate guess. Fully unknown zones fall
// back to the first candidate.
func bestAZ(dec Decision) string {
	if len(dec.Candidates) == 0 {
		return ""
	}
	bestFresh, bestFreshMS := "", 0.0
	bestStale, bestStaleMS := "", 0.0
	for _, az := range dec.Candidates {
		info := dec.Lookup(az)
		if !info.Known {
			continue
		}
		ms, ok := dec.Perf.ExpectedMS(dec.Workload, info.Dist)
		if !ok {
			continue
		}
		switch {
		case info.Fresh:
			if bestFresh == "" || ms < bestFreshMS {
				bestFresh, bestFreshMS = az, ms
			}
		default:
			if bestStale == "" || ms < bestStaleMS {
				bestStale, bestStaleMS = az, ms
			}
		}
	}
	if bestFresh != "" {
		return bestFresh
	}
	if bestStale != "" {
		return bestStale
	}
	return dec.Candidates[0]
}

// ---------------------------------------------------------------------------

// RetrySlow pins bursts to one zone and retries invocations landing on the
// slowest CPUs (typically AMD EPYC and the 2.9 GHz Xeon).
type RetrySlow struct {
	AZ string
}

// Every strategy bans with the same tuning.
const (
	// slowCount is how many of the slowest observed kinds a slowest-N ban
	// refuses: the paper's retry-slow configuration, and the conservative
	// fallback of the strategies that focus on exact shares.
	slowCount = 2
	// minFocusShare is the least characterized share of the fastest kind
	// for focus-fastest's full focus. Below ~15% share, the expected
	// decline holds (>5 per completion) usually outweigh the gain — the
	// paper's "overhead of additional retries grows rapidly" regime.
	minFocusShare = 0.15
	// minGainMS is the least learned runtime gain (vs the fastest kind) a
	// CPU must cost before it gets banned; anything cheaper cannot repay
	// the decline hold and retry churn (twice the paper's 150 ms hold).
	minGainMS = 300
)

// Name implements Strategy.
func (RetrySlow) Name() string { return "retry-slow" }

// PickAZ implements Strategy.
func (r RetrySlow) PickAZ(Decision) string { return r.AZ }

// Ban implements Strategy. Stale characterizations are used as-is: the
// slow/fast CPU ordering survives drift far better than exact shares, so a
// conservative slowest-N ban stays worthwhile on old data.
func (RetrySlow) Ban(dec Decision, az string) cpu.Mask {
	info := dec.Lookup(az)
	if !info.Known {
		return 0
	}
	return banSlowest(dec, info.Dist)
}

// banSlowest bans up to the slowCount slowest kinds present in d, under three
// guards: never the fastest present kind, never a kind so close to the
// fastest that retrying off it cannot repay the decline hold, and never so
// much of the zone that fewer than ~30% of placements can run — the paper's
// "only banning very poorly performing CPUs" mitigation.
func banSlowest(dec Decision, d charact.Dist) cpu.Mask {
	const minKeptShare = 0.3
	if len(d) == 0 {
		return 0
	}
	ranked := dec.Perf.Kinds(dec.Workload) // fastest first
	present := make([]cpu.Kind, 0, len(ranked))
	for _, k := range ranked {
		if d.Share(k) > 0 {
			present = append(present, k)
		}
	}
	if len(present) <= 1 {
		return 0
	}
	fastMS, ok := dec.Perf.Mean(dec.Workload, present[0])
	if !ok {
		return 0
	}
	n := min(slowCount, len(present)-1)
	var banned cpu.Mask
	bannedShare := 0.0
	for i := len(present) - 1; i >= len(present)-n; i-- {
		k := present[i]
		if meanK, ok := dec.Perf.Mean(dec.Workload, k); !ok || meanK-fastMS < minGainMS {
			continue
		}
		if bannedShare+d.Share(k) > 1-minKeptShare {
			break // would leave too little of the zone to run on
		}
		banned = banned.Add(k)
		bannedShare += d.Share(k)
	}
	return banned
}

// ---------------------------------------------------------------------------

// FocusFastest pins bursts to one zone and aggressively retries anything
// not on the fastest observed CPU. Below minFocusShare of the fastest kind
// it degrades to banning the slowest two, which guards against banning
// everything when the ideal CPU is nearly absent (the paper notes retry
// overhead explodes when the target CPU is rare).
type FocusFastest struct {
	AZ string
}

// Name implements Strategy.
func (FocusFastest) Name() string { return "focus-fastest" }

// PickAZ implements Strategy.
func (f FocusFastest) PickAZ(Decision) string { return f.AZ }

// Ban implements Strategy. On a stale characterization the strategy
// degrades deliberately to banning the slowest two kinds: full focus bets
// on the exact share of one CPU, which drift invalidates first, while the
// slow/fast ordering it falls back on decays much more slowly.
func (FocusFastest) Ban(dec Decision, az string) cpu.Mask {
	info := dec.Lookup(az)
	if !info.Known {
		return 0
	}
	if !info.Fresh {
		return banSlowest(dec, info.Dist)
	}
	return banAllButFastest(dec, info.Dist)
}

func banAllButFastest(dec Decision, d charact.Dist) cpu.Mask {
	if len(d) == 0 {
		return 0
	}
	ranked := dec.Perf.Kinds(dec.Workload)
	var fastest cpu.Kind
	for _, k := range ranked {
		if d.Share(k) > 0 {
			fastest = k
			break
		}
	}
	if fastest == 0 {
		return 0
	}
	if d.Share(fastest) < minFocusShare {
		return banSlowest(dec, d)
	}
	fastMS, ok := dec.Perf.Mean(dec.Workload, fastest)
	if !ok {
		return 0
	}
	var banned cpu.Mask
	for _, k := range ranked {
		if k == fastest || d.Share(k) <= 0 {
			continue
		}
		if meanK, ok := dec.Perf.Mean(dec.Workload, k); ok && meanK-fastMS < minGainMS {
			// Too close to the fastest: retrying off it costs more than
			// it saves.
			continue
		}
		banned = banned.Add(k)
	}
	return banned
}

// ---------------------------------------------------------------------------

// Hybrid combines region hopping with in-zone retries: pick the best
// candidate zone by expected runtime, then ban the cost-optimal set of
// CPUs there. Rather than always focusing the single fastest CPU, it
// evaluates every "ban the j slowest kinds" cutoff against the expected
// decline-hold overhead and keeps the cheapest — the paper's observation
// that the retry approach "can be tuned by specifying the CPUs that are
// banned" turned into an explicit optimization. The overhead model assumes
// declineHoldMS, the hold every burst uses.
type Hybrid struct{}

// Name implements Strategy.
func (Hybrid) Name() string { return "hybrid" }

// PickAZ implements Strategy.
func (Hybrid) PickAZ(dec Decision) string { return bestAZ(dec) }

// Ban implements Strategy. The cost optimization leans on exact shares, so
// on a stale characterization Hybrid degrades deliberately to the
// conservative slowest-two ban rather than optimizing against drifted data.
func (Hybrid) Ban(dec Decision, az string) cpu.Mask {
	info := dec.Lookup(az)
	if !info.Known {
		return 0
	}
	if !info.Fresh {
		return banSlowest(dec, info.Dist)
	}
	return optimalBanSet(dec, info.Dist, declineHoldMS)
}

// optimalBanSet picks the ban cutoff minimizing expected per-completion
// cost: runtime over the kept kinds plus (bannedShare/keptShare)*hold of
// decline overhead.
func optimalBanSet(dec Decision, d charact.Dist, holdMS float64) cpu.Mask {
	if len(d) == 0 {
		return 0
	}
	ranked := dec.Perf.Kinds(dec.Workload) // fastest first
	type entry struct {
		kind  cpu.Kind
		share float64
		mean  float64
	}
	present := make([]entry, 0, len(ranked))
	for _, k := range ranked {
		share := d.Share(k)
		if share <= 0 {
			continue
		}
		mean, ok := dec.Perf.Mean(dec.Workload, k)
		if !ok {
			continue
		}
		present = append(present, entry{kind: k, share: share, mean: mean})
	}
	if len(present) <= 1 {
		return 0
	}
	bestJ := 0
	bestCost := 0.0
	for j := 0; j < len(present); j++ {
		kept := present[:len(present)-j]
		var keptShare, weighted float64
		for _, e := range kept {
			keptShare += e.share
			weighted += e.share * e.mean
		}
		if keptShare <= 0 {
			continue
		}
		expRun := weighted / keptShare
		expCost := expRun + (1-keptShare)/keptShare*holdMS
		if j == 0 || expCost < bestCost {
			bestJ, bestCost = j, expCost
		}
	}
	if bestJ == 0 {
		return 0
	}
	var banned cpu.Mask
	for _, e := range present[len(present)-bestJ:] {
		banned = banned.Add(e.kind)
	}
	return banned
}

var (
	_ Strategy = Baseline{}
	_ Strategy = Regional{}
	_ Strategy = RetrySlow{}
	_ Strategy = FocusFastest{}
	_ Strategy = Hybrid{}
)
