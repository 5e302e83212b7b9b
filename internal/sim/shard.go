package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Sharded coordinates a group of Envs — shards — under conservative
// sim-time synchronization. Each shard owns a private event queue and
// advances independently inside a bounded window; the group repeatedly:
//
//  1. drains the cross-shard inbox into the target shards' queues in a
//     deterministic order (sorted by arrival time, then source shard, then
//     source post sequence),
//  2. finds T_min, the earliest pending event across all shards,
//  3. runs every shard with pending work up to (but excluding) the window
//     end T_min + lookahead, in parallel worker goroutines,
//  4. meets at a barrier and repeats.
//
// The conservative contract: an event executing inside a window may post to
// another shard only at or beyond the window end — i.e. cross-shard sends
// need a minimum delay of `lookahead` (in this repository: the minimum
// cross-region one-way network latency). Env.SendTo enforces the contract
// and fails the run on violation, so a model bug surfaces as a hard error
// instead of silent nondeterminism.
//
// Because shards only interact through the sorted barrier inbox, the event
// sequence of a sharded run is a pure function of the model and its RNG
// seeds — identical whether windows execute in parallel or one shard at a
// time (the `sequential` test knob), and identical across shard counts as
// long as the model keeps per-shard state on its owning shard.
type Sharded struct {
	epoch     time.Time
	lookahead time.Duration
	shards    []*Env

	// sequential forces windows to execute on one goroutine in shard
	// order. Results are identical either way (asserted by tests); the
	// knob exists so that equivalence is directly testable.
	sequential bool

	mu    sync.Mutex
	inbox []crossPost // guarded by mu

	// running and windowEnd are written by the coordinating goroutine only
	// at barriers, while every worker is parked on its work channel; the
	// channel handshake orders those writes before any worker read.
	running   bool
	windowEnd time.Duration
}

// crossPost is a scheduled occurrence in transit between shards. The
// (at, src, srcSeq) triple totally orders deliveries, making the merge
// deterministic regardless of which worker appended first.
type crossPost struct {
	at     time.Duration
	src    int
	srcSeq uint64
	target int
	fn     func()
}

// MinLookahead is the floor for the synchronization horizon. A zero or
// negative lookahead would force zero-length windows.
const MinLookahead = time.Microsecond

// NewSharded returns a group of n shards whose virtual clocks start at
// epoch. n is clamped to at least 1; lookahead is clamped to MinLookahead.
// Shard 0 is the conventional "control" shard (clients, routers); model
// code assigns the rest.
func NewSharded(epoch time.Time, n int, lookahead time.Duration) *Sharded {
	if n < 1 {
		n = 1
	}
	if lookahead < MinLookahead {
		lookahead = MinLookahead
	}
	g := &Sharded{epoch: epoch, lookahead: lookahead}
	g.shards = make([]*Env, n)
	for i := range g.shards {
		e := NewEnv(epoch)
		e.group = g
		e.shard = i
		g.shards[i] = e
	}
	return g
}

// NumShards returns the number of shards in the group.
func (g *Sharded) NumShards() int { return len(g.shards) }

// Shard returns the i'th shard environment.
func (g *Sharded) Shard(i int) *Env { return g.shards[i] }

// Control returns shard 0, the conventional home for client-side model
// code.
func (g *Sharded) Control() *Env { return g.shards[0] }

// Lookahead returns the synchronization horizon.
func (g *Sharded) Lookahead() time.Duration { return g.lookahead }

// SetSequential forces windows to run one shard at a time on the calling
// goroutine. The event sequence is identical to parallel execution; tests
// use the knob to assert exactly that.
func (g *Sharded) SetSequential(v bool) { g.sequential = v }

// Run executes events until every shard's queue is empty (and the inbox is
// drained) or a failure is recorded on any shard. On a clean drain all
// shard clocks advance to the time of the globally last event, matching the
// single-queue engine.
func (g *Sharded) Run() error { return g.run(-1) }

// RunFor executes events for at most d of virtual time past the latest
// shard clock. Events beyond the horizon stay queued; every shard clock
// advances exactly to the horizon.
func (g *Sharded) RunFor(d time.Duration) error { return g.run(g.maxNow() + d) }

// FinishFast forwards to every shard. Sharded groups never pace against the
// wall clock, so this only matters for model code that consults the flag.
func (g *Sharded) FinishFast() {
	for _, s := range g.shards {
		s.fastForward.Store(true)
	}
}

// Shutdown aborts all live processes on every shard. Safe to call when
// idle.
func (g *Sharded) Shutdown() {
	for _, s := range g.shards {
		s.drainProcs()
	}
}

// LiveProcs reports the number of live processes across all shards.
func (g *Sharded) LiveProcs() int {
	n := 0
	for _, s := range g.shards {
		n += len(s.procs)
	}
	return n
}

func (g *Sharded) maxNow() time.Duration {
	max := g.shards[0].now
	for _, s := range g.shards[1:] {
		if s.now > max {
			max = s.now
		}
	}
	return max
}

// post appends a cross-shard occurrence to the inbox. Called from worker
// goroutines mid-window and from model setup code between runs.
func (g *Sharded) post(p crossPost) {
	g.mu.Lock()
	g.inbox = append(g.inbox, p)
	g.mu.Unlock()
}

// deliver drains the inbox into the target shards' queues. Only the
// coordinator calls it, at barriers, so the target queues are quiescent.
// Sorting by (at, src, srcSeq) makes delivery order — and therefore the
// sequence numbers assigned on the target shard — deterministic.
func (g *Sharded) deliver() {
	g.mu.Lock()
	pending := g.inbox
	g.inbox = nil
	g.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	sort.Slice(pending, func(i, j int) bool {
		a, b := pending[i], pending[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.srcSeq < b.srcSeq
	})
	for _, p := range pending {
		s := g.shards[p.target]
		s.seq++
		s.queue.push(p.at, s.seq, p.fn)
	}
}

// next returns the earliest pending event time across all shards.
func (g *Sharded) next() (time.Duration, bool) {
	var min time.Duration
	found := false
	for _, s := range g.shards {
		if s.queue.empty() {
			continue
		}
		if at := s.queue.nextAt(); !found || at < min {
			min = at
		}
		found = true
	}
	return min, found
}

// firstFailure returns the failure of the lowest-numbered failed shard.
// Shard order (not wall-clock arrival order) picks the winner so the
// reported error is deterministic under parallel execution.
func (g *Sharded) firstFailure() error {
	for _, s := range g.shards {
		if s.failure != nil {
			return s.failure
		}
	}
	return nil
}

func (g *Sharded) run(until time.Duration) error {
	if g.running {
		return errors.New("sim: Run re-entered")
	}
	g.running = true
	defer func() { g.running = false }()

	parallel := !g.sequential && len(g.shards) > 1
	var work []chan time.Duration
	var done chan struct{}
	if parallel {
		work = make([]chan time.Duration, len(g.shards))
		done = make(chan struct{}, len(g.shards))
		for i := range g.shards {
			work[i] = make(chan time.Duration)
			s := g.shards[i]
			ch := work[i]
			go func() {
				for end := range ch {
					s.runWindow(end)
					done <- struct{}{}
				}
			}()
		}
		defer func() {
			for _, ch := range work {
				close(ch)
			}
		}()
	}

	for {
		g.deliver()
		if g.firstFailure() != nil {
			break
		}
		tmin, ok := g.next()
		if !ok {
			break
		}
		if until >= 0 && tmin > until {
			for _, s := range g.shards {
				if s.now < until {
					s.now = until
				}
			}
			return nil
		}
		end := tmin + g.lookahead
		if until >= 0 && end > until {
			// Include events scheduled exactly at the horizon, matching the
			// single-queue engine's `next.at > until` stop condition.
			end = until + 1
		}
		g.windowEnd = end
		busy := 0
		for i, s := range g.shards {
			if s.queue.empty() || s.queue.nextAt() >= end {
				continue
			}
			if parallel {
				work[i] <- end
				busy++
			} else {
				s.runWindow(end)
			}
		}
		for ; busy > 0; busy-- {
			<-done
		}
	}

	if err := g.firstFailure(); err != nil {
		g.Shutdown()
		return err
	}
	if until >= 0 {
		for _, s := range g.shards {
			if s.now < until {
				s.now = until
			}
		}
		return nil
	}
	// Natural drain: align every clock with the globally last event, as a
	// single queue would have.
	max := g.maxNow()
	for _, s := range g.shards {
		s.now = max
	}
	g.Shutdown()
	return nil
}

// errCrossEngine is reported when SendTo targets an Env outside the
// caller's group.
var errCrossEngine = errors.New("sim: SendTo target belongs to a different engine")

// SendTo schedules fn on the target environment at the caller's virtual
// time Now()+d. When target is the caller (or both are ungrouped members of
// the same single-queue run), this is exactly Schedule. Across shards the
// conservative contract applies: the arrival time must fall at or beyond
// the current synchronization window, i.e. d must be at least the group
// lookahead; a violating send fails the run.
func (e *Env) SendTo(target *Env, d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if target == e {
		e.Schedule(d, fn)
		return
	}
	g := e.group
	if g == nil || target.group != g {
		e.Fail(errCrossEngine)
		return
	}
	at := e.now + d
	if g.running && at < g.windowEnd {
		e.Fail(fmt.Errorf(
			"sim: determinism violation: cross-shard send from shard %d at %v arrives at %v, inside the window ending %v (need delay >= lookahead %v)",
			e.shard, e.now, at, g.windowEnd, g.lookahead))
		return
	}
	e.postSeq++
	g.post(crossPost{at: at, src: e.shard, srcSeq: e.postSeq, target: target.shard, fn: fn})
}

// Shard returns the shard index of e within its group (0 when ungrouped).
func (e *Env) Shard() int { return e.shard }

// Group returns the Sharded group that owns e, or nil for a standalone
// single-queue environment.
func (e *Env) Group() *Sharded { return e.group }

// runWindow executes pending events strictly before end. The clock only
// advances to executed events (never to the window end), so a shard that
// idles through several windows jumps straight to its next event, exactly
// as the single-queue engine would.
func (e *Env) runWindow(end time.Duration) {
	for e.failure == nil && !e.queue.empty() && e.queue.nextAt() < end {
		next := e.queue.pop()
		e.now = next.at
		next.fn()
	}
}
