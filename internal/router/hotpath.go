package router

import (
	"sync"

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

// ---------------------------------------------------------------------------

// burstState is the reusable per-burst bookkeeping: the logical-invocation
// slots and the retry queue. Bursts are created in volume (skyd serves one
// per /v1/burst request, and EX-5 runs at least two per workload per day),
// so the arrays are pooled; a burst takes a state at start and returns it
// once every response that could touch a slot has settled.
type burstState struct {
	slots []burstSlot
	queue []*burstSlot
	// pending counts outstanding references across all slots: in-flight
	// response callbacks and armed hedge timers that will still read slot
	// state when they run. finished marks that Burst has returned. The
	// state goes back to the pool only when both agree nobody can touch
	// it — whichever of finish / the last settle happens second pools it.
	pending  int
	finished bool
}

// burstSlot is one logical invocation. gen advances every time the slot is
// (re)issued or settled, so a response carrying a stale gen — a hedge
// loser, or the twin of an attempt that already failed — identifies itself
// and is dropped.
type burstSlot struct {
	attempts int // platform-failure attempts consumed
	gen      int
	// refs is this slot's share of burstState.pending: response callbacks
	// and hedge timers that have not fired yet. Only the sim goroutine
	// touches it.
	refs int
}

var burstPool = sync.Pool{New: func() any { return new(burstState) }}

// newBurstState returns a pooled state sized for n slots, all queued.
func newBurstState(n int) *burstState {
	st := burstPool.Get().(*burstState)
	if cap(st.slots) < n {
		st.slots = make([]burstSlot, n)
		st.queue = make([]*burstSlot, 0, n)
	}
	st.slots = st.slots[:n]
	st.queue = st.queue[:0]
	for i := range st.slots {
		st.slots[i] = burstSlot{}
		st.queue = append(st.queue, &st.slots[i])
	}
	st.pending = 0
	st.finished = false
	return st
}

// retain records a reference to sl: a response callback or an armed hedge
// timer that will read the slot when it fires.
func (st *burstState) retain(sl *burstSlot) {
	sl.refs++
	st.pending++
}

// settle drops one reference to sl. The last settle after finish pools
// the state.
func (st *burstState) settle(sl *burstSlot) {
	sl.refs--
	st.pending--
	if st.finished && st.pending == 0 {
		st.release()
	}
}

// finish marks the burst returned. With no references in flight the state
// pools immediately; otherwise the final straggler's settle pools it.
// This is what makes pooling safe with hedging on: a losing twin that
// completes after the burst settles still holds its reference, so its
// slot cannot have been recycled under it.
func (st *burstState) finish() {
	st.finished = true
	if st.pending == 0 {
		st.release()
	}
}

// release returns the state to the pool. Callers outside the
// retain/settle/finish protocol must guarantee no in-flight response can
// still reach a slot.
func (st *burstState) release() {
	burstPool.Put(st)
}
