// Package router is the smart routing system (§3.4–3.5): it consumes
// per-zone CPU characterizations and per-workload performance profiles to
// place bursts of function invocations on the best available hardware via
// regional routing, CPU-banning retries, or both (hybrid).
package router

import (
	"errors"
	"fmt"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/faas"
	"skyfaas/internal/mesh"
	"skyfaas/internal/metrics"
	"skyfaas/internal/rng"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// ErrNoZone is wrapped by Burst when the strategy finds no zone to route
// to: none of the zones it would weigh is characterized yet, or every
// candidate was filtered out.
var ErrNoZone = errors.New("picked no zone")

// Router executes workload bursts over the sky mesh.
type Router struct {
	client   *faas.Client
	mesh     *mesh.Mesh
	store    *charact.Store
	perf     *PerfModel
	passive  *charact.Passive
	metrics  *metrics.Registry
	breakers map[string]*Breaker
	rand     *rng.Stream
	// trafficSink, when set, receives each burst's landing zone and
	// completion count (the refresh maintainer's urgency signal).
	trafficSink func(az string, completed int)
}

// New assembles a router.
func New(client *faas.Client, m *mesh.Mesh, store *charact.Store, perf *PerfModel) *Router {
	return &Router{
		client: client, mesh: m, store: store, perf: perf,
		breakers: make(map[string]*Breaker),
		rand:     rng.New(0).Split("router"),
	}
}

// UsePassive attaches a passive characterization collector: every response
// the router sees (profiling runs, burst completions, and even declines)
// feeds it, so zones carrying traffic can be characterized without paying
// for polls (§4.6's future work).
func (r *Router) UsePassive(p *charact.Passive) { r.passive = p }

// Passive returns the attached collector (nil when unset).
func (r *Router) Passive() *charact.Passive { return r.passive }

// UseTrafficSink registers a callback invoked at the end of every burst
// with the decided zone and its completion count. The refresh maintainer
// uses it to weight re-characterization urgency by routed traffic share.
// The callback runs on the simulation goroutine.
func (r *Router) UseTrafficSink(fn func(az string, completed int)) { r.trafficSink = fn }

// observePassive feeds one response into the passive collector.
func (r *Router) observePassive(az string, resp cloudsim.Response) {
	if r.passive == nil || !resp.OK() {
		return
	}
	r.passive.Observe(az, resp.Ended, resp.Profile.Instance, resp.Profile.Kind)
}

// Perf exposes the router's performance model.
func (r *Router) Perf() *PerfModel { return r.perf }

// Store exposes the router's characterization store.
func (r *Router) Store() *charact.Store { return r.store }

// Every burst runs at the same settings.
const (
	// burstMemoryMB selects the mesh endpoint: enough for the 2-vCPU
	// Table-1 workloads to run unstarved.
	burstMemoryMB = 4096
	// declineHoldMS is the decline hold, the paper's 150 ms.
	declineHoldMS = 150
	// giveUp bounds how long a burst keeps retrying before running the
	// stragglers unbanned. Decline cascades through the warm pool can pile
	// onto individual slots, so the escape hatch is burst-level wall time,
	// not a per-slot retry count.
	giveUp = 2 * time.Minute
)

// BurstSpec describes one batch of invocations.
type BurstSpec struct {
	Strategy Strategy
	Workload workload.ID
	// N is the number of invocations that must complete.
	N int
	// Candidates are the zones the strategy may choose among.
	Candidates []string
	// Resilience enables graceful degradation: bounded retries with
	// jittered backoff and, unless switched off, the per-zone circuit
	// breaker with zone failover, and optionally hedging. Nil reproduces
	// the legacy behavior exactly.
	Resilience *Resilience
}

// BurstResult summarizes one burst.
type BurstResult struct {
	Strategy  string
	Workload  workload.ID
	AZ        string
	N         int
	Completed int
	// Attempts counts every invocation issued, including declines and
	// platform failures.
	Attempts int
	Declined int
	Failed   int
	// PerCPU tallies where completed work finally ran.
	PerCPU map[cpu.Kind]int
	// TotalRunMS sums the billed runtime of completed executions only.
	TotalRunMS float64
	// CostUSD is the total spend including decline holds.
	CostUSD float64
	// Elapsed is wall (virtual) time from burst start to last completion.
	Elapsed time.Duration
	// Abandoned counts slots that exhausted their retry budget (resilient
	// bursts only; legacy bursts retry until they complete).
	Abandoned int
	// Failovers counts mid-burst re-routes to another zone after the
	// breaker opened.
	Failovers int
	// Hedges counts duplicate requests issued against slow slots; HedgeWins
	// counts the hedges whose response arrived first.
	Hedges    int
	HedgeWins int
}

// SuccessRate is the fraction of requested invocations that completed.
func (b BurstResult) SuccessRate() float64 {
	if b.N == 0 {
		return 0
	}
	return float64(b.Completed) / float64(b.N)
}

// MeanRunMS is the mean billed runtime of completed executions.
func (b BurstResult) MeanRunMS() float64 {
	if b.Completed == 0 {
		return 0
	}
	return b.TotalRunMS / float64(b.Completed)
}

// RetryFrac is the fraction of placements that were declined and retried
// (throttle reissues excluded — they never reached an instance).
func (b BurstResult) RetryFrac() float64 {
	placed := b.Declined + b.Completed
	if placed == 0 {
		return 0
	}
	return float64(b.Declined) / float64(placed)
}

// burstSlot is one logical invocation. gen advances every time the slot is
// (re)issued or settled, so a response carrying a stale gen — a hedge
// loser, or the twin of an attempt that already failed — identifies itself
// and is dropped. Each burst makes its own slots, so a loser that answers
// after Burst has returned still reads its own burst's slot.
type burstSlot struct {
	attempts int // platform-failure attempts consumed
	gen      int
}

// Burst executes spec from the calling process and returns when all N
// invocations have completed (or, under a Resilience envelope, been
// abandoned after exhausting their retry budget).
//
// Retries stream: the moment a decline arrives the slot is reissued, while
// the declining instance is still held busy (§3.5's 150 ms hold), so the
// reissue cannot land back on it. Once the burst has been retrying for
// giveUp, stragglers are reissued without bans so the burst always
// completes. Platform failures (throttle/saturation/outage) back off before
// reissue — a fixed 50 ms without Resilience, exponential with jitter
// under it. With Resilience, a per-zone circuit breaker (unless NoBreaker)
// watches those failures and, once open, queued slots fail over to the
// next-best characterized candidate zone; with Hedge, a slot silent for
// hedgeAfter gets one hedge, the first response winning and the loser
// being dropped on arrival.
func (r *Router) Burst(p *sim.Proc, spec BurstSpec) (BurstResult, error) {
	if spec.Strategy == nil {
		return BurstResult{}, fmt.Errorf("router: nil strategy")
	}
	if spec.N <= 0 {
		return BurstResult{}, fmt.Errorf("router: non-positive burst size")
	}
	env := r.client.Cloud().Env()
	dec := Decision{
		Workload:   spec.Workload,
		Candidates: spec.Candidates,
		Store:      r.store,
		Perf:       r.perf,
		Now:        env.Now(),
	}
	tbl, ok := BuildDecisionTable(spec.Strategy, dec, r.mesh, burstMemoryMB, declineHoldMS)
	if !ok {
		if az := spec.Strategy.PickAZ(dec); az == "" {
			return BurstResult{}, fmt.Errorf("router: strategy %q %w", spec.Strategy.Name(), ErrNoZone)
		}
		return BurstResult{}, fmt.Errorf("router: no mesh endpoint for strategy %q", spec.Strategy.Name())
	}
	az := tbl.AZ
	bm := r.burstMetrics(spec.Strategy.Name())
	bm.recordDecision(az, spec.Candidates)

	rs := spec.Resilience
	res := BurstResult{
		Strategy: spec.Strategy.Name(),
		Workload: spec.Workload,
		AZ:       az,
		N:        spec.N,
		PerCPU:   make(map[cpu.Kind]int),
	}
	start := env.Now()
	giveUpAt := start.Add(giveUp)
	done := sim.NewEvent(env)

	// The client paces itself under the platform's concurrency quota:
	// at most maxOutstanding requests are in flight; further slots queue.
	maxOutstanding := r.client.Cloud().Options().Quota - 50
	if maxOutstanding < 1 {
		maxOutstanding = 1
	}
	outstanding := 0

	// Every slot starts queued.
	slots := make([]burstSlot, spec.N)
	queue := make([]*burstSlot, spec.N)
	for i := range slots {
		queue[i] = &slots[i]
	}

	// Route state; failover replaces the frozen decision table, retargeting
	// every slot issued afterward.
	routeAZ := az

	// failOver retargets the burst at the best candidate whose breaker
	// admits traffic. Side-effect-free Admits is used for filtering so
	// probing budgets aren't consumed on zones we don't pick.
	failOver := func() bool {
		cands := make([]string, 0, len(spec.Candidates))
		for _, c := range spec.Candidates {
			if c == routeAZ {
				continue
			}
			if b, ok := r.breakers[c]; ok && !b.Admits(env.Now()) {
				continue
			}
			cands = append(cands, c)
		}
		if len(cands) == 0 {
			return false
		}
		d := dec
		d.Candidates = cands
		d.Now = env.Now()
		next := bestAZ(d)
		if next == "" || next == routeAZ {
			return false
		}
		nextTbl, ok := buildTableAt(spec.Strategy, d, r.mesh, next, burstMemoryMB, declineHoldMS)
		if !ok {
			return false
		}
		routeAZ, tbl = next, nextTbl
		res.AZ = next // report where the burst ended up, not where it began
		res.Failovers++
		bm.failovers.Inc()
		return true
	}

	finish := func() bool {
		if res.Completed+res.Abandoned == spec.N {
			done.Trigger(nil)
			return true
		}
		return false
	}

	var issue func(sl *burstSlot)
	var pump func()
	pump = func() {
		for outstanding < maxOutstanding && len(queue) > 0 {
			if rs.breakerOn() && !env.Now().After(giveUpAt) &&
				!r.breakerFor(routeAZ).Allow(env.Now()) {
				if failOver() {
					continue // re-gate against the new zone's breaker
				}
				// Nowhere to go: hold the queue and try again shortly.
				env.Schedule(50*time.Millisecond, pump)
				return
			}
			sl := queue[0]
			queue = queue[1:]
			outstanding++
			issue(sl)
		}
	}
	requeue := func(sl *burstSlot, after time.Duration) {
		queue = append(queue, sl)
		if after > 0 {
			env.Schedule(after, pump)
		} else {
			pump()
		}
	}
	issue = func(sl *burstSlot) {
		sl.gen++
		gen := sl.gen
		// After give-up, bans are lifted to guarantee completion. Both call
		// variants are prebuilt: issuing allocates nothing.
		call := tbl.Call(!env.Now().After(giveUpAt))
		azAt := routeAZ
		send := func(isHedge bool) {
			r.client.Start(call, func(resp cloudsim.Response) {
				outstanding--
				res.Attempts++
				res.CostUSD += resp.CostUSD
				r.observePassive(azAt, resp)
				if rs.breakerOn() {
					r.breakerFor(azAt).Record(env.Now(), resp.OK())
				}
				if gen != sl.gen {
					// Hedge loser or twin of a settled attempt: dropped.
					pump()
					return
				}
				sl.gen++ // settle: any in-flight twin is now a loser
				if isHedge {
					res.HedgeWins++
					bm.hedgeWins.Inc()
				}
				outcome, isProbe := resp.Value.(cloudsim.ProbeOutcome)
				switch {
				case !resp.OK() || !isProbe:
					res.Failed++
					bm.failures.Inc()
					sl.attempts++
					if rs != nil && sl.attempts >= burstRetry.MaxAttempts {
						res.Abandoned++
						bm.abandoned.Inc()
						if finish() {
							return
						}
						pump()
						return
					}
					backoff := 50 * time.Millisecond
					if rs != nil {
						backoff = burstRetry.Backoff(sl.attempts, r.rand)
					}
					requeue(sl, backoff)
				case !outcome.Ran:
					res.Declined++
					bm.retries.Inc()
					requeue(sl, 0) // reissue while the declining FI is held
				default:
					res.Completed++
					res.PerCPU[resp.Profile.Kind]++
					res.TotalRunMS += resp.BilledMS
					if finish() {
						return
					}
					pump()
				}
			})
		}
		send(false)
		if rs != nil && rs.Hedge {
			env.Schedule(hedgeAfter, func() {
				if gen != sl.gen || outstanding >= maxOutstanding {
					return // settled already, or no quota headroom
				}
				outstanding++
				res.Hedges++
				bm.hedges.Inc()
				send(true)
			})
		}
	}
	pump()
	p.Wait(done)
	res.Elapsed = env.Now().Sub(start)
	bm.recordResult(res, r.perf, res.Elapsed)
	if r.trafficSink != nil && res.Completed > 0 {
		r.trafficSink(res.AZ, res.Completed)
	}
	return res, nil
}

// Profile runs n unrestricted executions of w in each zone and feeds the
// observed per-CPU runtimes into the perf model — EX-5's baseline
// profiling step. It returns the total profiling spend.
//
// Batches are separated by more than the instance keep-alive: back-to-back
// batches would reuse the same warm instances on the same few (bin-packed)
// hosts and only ever observe one CPU type, whereas spacing batches lets
// each one land on freshly chosen hosts — this temporal spreading is how
// the paper's 10,000-run profiling covered each zone's hardware spectrum.
func (r *Router) Profile(p *sim.Proc, w workload.ID, azs []string, nPerAZ, memoryMB int) (float64, error) {
	if memoryMB == 0 {
		memoryMB = 4096
	}
	keepAlive := r.client.Cloud().Options().KeepAlive
	var cost float64
	for _, az := range azs {
		ep, ok := r.mesh.Nearest(az, memoryMB, cpu.X86)
		if !ok {
			return cost, fmt.Errorf("router: no mesh endpoint in %s", az)
		}
		call := faas.Call{AZ: az, Function: ep.Function, Work: cloudsim.WorkBehavior{Workload: w}}
		const lane = 150
		remaining := nPerAZ
		for remaining > 0 {
			batch := lane
			if batch > remaining {
				batch = remaining
			}
			// The model takes the batch in issue order, not arrival order:
			// its running sums, and so every output, are pinned to it.
			resps := make([]cloudsim.Response, batch)
			left, all := batch, sim.NewEvent(p.Env())
			for i := range resps {
				r.client.Start(call, func(resp cloudsim.Response) {
					resps[i] = resp
					if left--; left == 0 {
						all.Trigger(nil)
					}
				})
			}
			p.Wait(all)
			for _, resp := range resps {
				if !resp.OK() {
					continue
				}
				cost += resp.CostUSD
				r.perf.Observe(w, resp.Profile.Kind, resp.BilledMS)
				r.observePassive(az, resp)
			}
			remaining -= batch
			if remaining > 0 {
				p.Sleep(keepAlive + time.Minute)
			}
		}
	}
	return cost, nil
}
