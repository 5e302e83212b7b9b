package router

import (
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/faas"
	"skyfaas/internal/mesh"
)

// This file is the router's allocation-free issue path. Strategy decisions
// are expensive and allocate freely (maps, candidate slices, sorted
// rankings) — but they only change when the route changes: at burst start
// and on breaker failover. Everything the per-invocation loop needs is
// frozen into a DecisionTable at those two points, so issuing an invocation
// copies prebuilt values and touches no allocator.
//
// The measured budget (TestRouteHotPathAllocs; router.pick_call_allocs in
// bench/): 0 allocations for the pinned strategies (Baseline, RetrySlow,
// FocusFastest) and the cheapest-zone strategies (Regional, Hybrid,
// CostAware) alike — the table is strategy-independent once built.

// DecisionTable is one frozen routing decision: the zone, its mesh
// endpoint, the ban mask, and the two call variants the burst loop issues
// (with bans enforced, and with bans lifted after give-up). The Work
// behaviors inside the calls are boxed exactly once, at build time; the
// hot path copies the interface header, which Go does without allocating.
type DecisionTable struct {
	// AZ is the decided zone; Banned the CPU kinds refused there.
	AZ     string
	Banned cpu.Mask
	// Endpoint is the mesh deployment the calls target.
	Endpoint mesh.Endpoint

	banned faas.Call
	open   faas.Call
}

// BuildDecisionTable runs one full (allocating) strategy decision and
// freezes it. holdMS is the decline hold the probe behavior enforces.
func BuildDecisionTable(s Strategy, dec Decision, m *mesh.Mesh, memoryMB int, holdMS float64) (DecisionTable, bool) {
	az := s.PickAZ(dec)
	if az == "" {
		return DecisionTable{}, false
	}
	return buildTableAt(s, dec, m, az, memoryMB, holdMS)
}

// buildTableAt freezes a decision for an already-chosen zone (failover
// picks the zone itself, then rebuilds the table here).
func buildTableAt(s Strategy, dec Decision, m *mesh.Mesh, az string, memoryMB int, holdMS float64) (DecisionTable, bool) {
	ep, ok := m.Nearest(az, memoryMB, cpu.X86)
	if !ok {
		return DecisionTable{}, false
	}
	t := DecisionTable{
		AZ:       az,
		Banned:   s.Ban(dec, az),
		Endpoint: ep,
	}
	t.banned = faas.Call{
		AZ:       az,
		Function: ep.Function,
		Work: cloudsim.ProbeBehavior{
			Work:   cloudsim.WorkBehavior{Workload: dec.Workload},
			Banned: t.Banned,
			HoldMS: holdMS,
		},
	}
	t.open = faas.Call{
		AZ:       az,
		Function: ep.Function,
		Work: cloudsim.ProbeBehavior{
			Work:   cloudsim.WorkBehavior{Workload: dec.Workload},
			HoldMS: holdMS,
		},
	}
	return t, true
}

// Call returns the prebuilt call, with or without the ban set. The result
// is a value copy sharing the boxed behavior — callers must not mutate
// Work. Zero allocations, pinned by TestRouteHotPathAllocs.
func (t *DecisionTable) Call(enforceBans bool) faas.Call {
	if enforceBans {
		return t.banned
	}
	return t.open
}

// Pick returns the frozen decision. Zero allocations.
func (t *DecisionTable) Pick() (az string, banned cpu.Mask) {
	return t.AZ, t.Banned
}
