package router

import (
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
)

// This file implements the routing refinements §3.4 sketches around the
// core strategies: bounding the added network latency with the
// client–region distance heuristic, and optimizing dollars rather than
// milliseconds when providers price differently.

// LatencyBound removes candidate zones whose round trip from the client
// exceeds MaxRTT, under geo's default latency model, and lets Hybrid
// decide among the rest — the paper's prior system "bounded network
// latency with a client-region distance heuristic", and §3.5 notes
// regional routing trades latency for billed-runtime savings.
type LatencyBound struct {
	// Client is the request origin.
	Client geo.Coord
	// MaxRTT is the highest acceptable round trip (default 120 ms).
	MaxRTT time.Duration
	// Locator resolves a zone to its region location; wire it to
	// Cloud-backed lookup via NewZoneLocator.
	Locator ZoneLocator
}

// ZoneLocator resolves a zone name to its region's coordinates.
type ZoneLocator func(az string) (geo.Coord, bool)

// NewZoneLocator builds a ZoneLocator over a cloud's catalog.
func NewZoneLocator(c *cloudsim.Cloud) ZoneLocator {
	return func(azName string) (geo.Coord, bool) {
		az, ok := c.AZ(azName)
		if !ok {
			return geo.Coord{}, false
		}
		return az.Region().Loc(), true
	}
}

func (l LatencyBound) maxRTT() time.Duration {
	if l.MaxRTT == 0 {
		return 120 * time.Millisecond
	}
	return l.MaxRTT
}

// Name implements Strategy.
func (LatencyBound) Name() string { return "latency-bound+hybrid" }

// filter returns the candidates within the RTT bound. If none qualify the
// original list is kept — a too-strict bound should degrade to plain
// hybrid, not strand the burst.
func (l LatencyBound) filter(candidates []string) []string {
	if l.Locator == nil {
		return candidates
	}
	model := geo.DefaultLatencyModel()
	var kept []string
	for _, az := range candidates {
		loc, ok := l.Locator(az)
		if !ok {
			continue
		}
		if model.BaseRTT(l.Client, loc) <= l.maxRTT() {
			kept = append(kept, az)
		}
	}
	if len(kept) == 0 {
		return candidates
	}
	return kept
}

// PickAZ implements Strategy.
func (l LatencyBound) PickAZ(dec Decision) string {
	dec.Candidates = l.filter(dec.Candidates)
	return Hybrid{}.PickAZ(dec)
}

// Ban implements Strategy.
func (l LatencyBound) Ban(dec Decision, az string) cpu.Mask {
	dec.Candidates = l.filter(dec.Candidates)
	return Hybrid{}.Ban(dec, az)
}

// ---------------------------------------------------------------------------

// CostAware routes to the candidate zone with the lowest expected *dollar*
// cost instead of the lowest expected runtime. The two differ across
// providers: a slower zone with a cheaper rate card or smaller memory grain
// can win on price (visible in the multicloud example). Within one
// provider and memory setting it reduces to Regional.
type CostAware struct {
	// MemoryMB is the deployment size the estimate assumes (default 4096).
	MemoryMB int
	// Pricer returns the rate card for a zone; wire via NewZonePricer.
	Pricer ZonePricer
}

// ZonePricer resolves a zone to its provider's price model.
type ZonePricer func(az string) (cloudsim.PriceModel, bool)

// NewZonePricer builds a ZonePricer over a cloud's catalog.
func NewZonePricer(c *cloudsim.Cloud) ZonePricer {
	return func(azName string) (cloudsim.PriceModel, bool) {
		az, ok := c.AZ(azName)
		if !ok {
			return cloudsim.PriceModel{}, false
		}
		return c.Price(az.Region().Provider()), true
	}
}

// Name implements Strategy.
func (CostAware) Name() string { return "cost-aware" }

// PickAZ implements Strategy.
func (c CostAware) PickAZ(dec Decision) string {
	if len(dec.Candidates) == 0 {
		return ""
	}
	mem := c.MemoryMB
	if mem == 0 {
		mem = 4096
	}
	best := ""
	bestCost := 0.0
	for _, az := range dec.Candidates {
		info := dec.Lookup(az)
		if !info.Known || !info.Fresh {
			continue
		}
		ms, ok := dec.Perf.ExpectedMS(dec.Workload, info.Dist)
		if !ok {
			continue
		}
		price := cloudsim.PriceModel{}
		if c.Pricer != nil {
			if p, ok := c.Pricer(az); ok {
				price = p
			}
		}
		cost := ms // no pricer: fall back to runtime comparison
		if price != (cloudsim.PriceModel{}) {
			cost = price.Cost(mem, ms)
		}
		if best == "" || cost < bestCost {
			best, bestCost = az, cost
		}
	}
	if best == "" {
		return dec.Candidates[0]
	}
	return best
}

// Ban implements Strategy: cost-aware placement keeps the hybrid retry
// logic inside the chosen zone, degrading to the conservative slowest-two
// ban when the zone's characterization has gone stale.
func (c CostAware) Ban(dec Decision, az string) cpu.Mask {
	info := dec.Lookup(az)
	if !info.Known {
		return 0
	}
	if !info.Fresh {
		return banSlowest(dec, info.Dist)
	}
	return optimalBanSet(dec, info.Dist, declineHoldMS)
}

var (
	_ Strategy = LatencyBound{}
	_ Strategy = CostAware{}
)
