// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with cooperative processes.
//
// The kernel drives every experiment in this repository. Model code is
// written in one of two styles:
//
//   - Callbacks: Env.Schedule(d, fn) runs fn at virtual time now+d. Cheap,
//     used for mechanical bookkeeping (drift ticks, request steps). Timers
//     that all share one delay — function-instance keep-alive expiry — go
//     through a Lane, which fires each live one exactly where Schedule
//     would have while holding one queue entry for all of them, and drops
//     the ones the caller's predicate reports stale instead of firing them
//     as no-ops. The event queue already keeps a burst that shares a delay
//     as one sorted run behind a single heap entry (queue.go); what a Lane
//     adds is memory: a keep-alive timer is a closure-free 24-byte slot
//     instead of a closure per Schedule, held only while it is live.
//   - Processes: Env.Go(name, fn) starts a cooperative process — a goroutine
//     that may block on Proc.Sleep and Proc.Wait — and it stays fully
//     deterministic: the scheduler and at most one process run at any
//     instant, hand over hand. A process costs a goroutine, two channels
//     and a hand-over per wake-up, so it is kept for logic that is long and
//     sequential and runs once per driver, not once per invocation: an
//     experiment's or a cell's driver (core.Runtime.Do) and the sampler
//     poll loops it calls, a refresh pass, and each command skyd's pump
//     runs (one per served call, however many invocations it makes).
//     Per-invocation logic — a request's life in the cloud, the sampler's
//     fan-out tree, a client's retry envelope, an open-loop
//     arrival — is a chain of callbacks instead, each scheduled where a
//     process would have been started or woken, so the event order is the
//     process form's.
//
// Events at equal virtual timestamps execute in schedule order (a strictly
// increasing sequence number breaks ties), so a run is a pure function of
// the model and its RNG seeds.
package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrAborted is the cause recorded by a process still blocked when its run
// ended, which unwinds it.
var ErrAborted = errors.New("sim: process aborted by shutdown")

// errAbortSentinel is panicked inside a blocked process to unwind it during
// shutdown; the process wrapper recovers it.
type errAbortSentinel struct{}

// Env is a simulation environment: a virtual clock plus an event queue.
// An Env must not be shared across OS threads while running; the kernel
// enforces single-threaded model execution by construction.
type Env struct {
	epoch   time.Time
	now     time.Duration
	queue   eventQueue
	seq     uint64
	procs   map[*Proc]struct{}
	failure error
	running bool
	// fastForward, once set, makes RunPaced stop waiting between events:
	// the remaining queue drains at full speed. With RunPaced's command
	// channel it is the one cross-thread input the kernel accepts — a
	// shutdown knob for live servers whose queues hold pre-scheduled
	// far-future events (the drift timeline) that would otherwise pace out
	// for hours. It never reorders events, so determinism of the event
	// sequence is unaffected. wake interrupts a paced wait in progress so
	// the flag is seen at once.
	fastForward atomic.Bool
	wake        chan struct{}
}

// NewEnv returns an environment whose virtual clock starts at epoch.
func NewEnv(epoch time.Time) *Env {
	return &Env{
		epoch: epoch,
		procs: make(map[*Proc]struct{}),
		wake:  make(chan struct{}, 1),
	}
}

// Now returns the current virtual wall-clock time.
func (e *Env) Now() time.Time { return e.epoch.Add(e.now) }

// Elapsed returns virtual time elapsed since the epoch.
func (e *Env) Elapsed() time.Duration { return e.now }

// Schedule runs fn at virtual time Now()+d. A negative d schedules at the
// current instant (after events already queued for this instant).
// Scheduling is the kernel's innermost operation — tens of millions of
// calls per run — so it must stay allocation-free (TestScheduleRunAllocs
// pins it).
func (e *Env) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.queue.push(e.now+d, e.seq, fn)
}

// Fail aborts the run: Run returns err after the current event completes.
// The first failure wins.
func (e *Env) Fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
}

// Run executes events until the queue is empty or a failure is recorded.
// Processes still blocked when the queue drains are aborted so their
// goroutines exit; their Err reports ErrAborted.
func (e *Env) Run() error { return e.run(-1) }

// RunFor executes events for at most d of virtual time. Events scheduled
// beyond the horizon stay queued; the clock advances exactly to the horizon.
// Blocked processes are left intact so a subsequent RunFor can resume them.
func (e *Env) RunFor(d time.Duration) error { return e.run(e.now + d) }

// FinishFast makes a paced run (RunPaced) stop waiting at once — a wait in
// progress is interrupted — and stop taking commands, so the remaining
// queue drains at full speed and the run returns. Safe to call from any
// goroutine, before or during the run; it is how a live server shuts down
// promptly without abandoning queued work.
func (e *Env) FinishFast() {
	e.fastForward.Store(true)
	select {
	case e.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// run is the event loop proper: pop, advance the clock, fire. Per-event
// work must not allocate (TestScheduleRunAllocs pins it) — the queue
// itself stores its items by value for the same reason.
func (e *Env) run(until time.Duration) error {
	if e.running {
		return errors.New("sim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()

	for e.failure == nil && !e.queue.empty() {
		if until >= 0 && e.queue.nextAt() > until {
			e.now = until
			return nil
		}
		next := e.queue.pop()
		e.now = next.at
		next.fn()
	}
	if until >= 0 && e.failure == nil {
		e.now = until
		return nil
	}
	if e.failure != nil {
		e.drainProcs()
		return e.failure
	}
	e.drainProcs()
	return nil
}

// drainProcs force-unwinds every blocked process so no goroutine leaks.
func (e *Env) drainProcs() {
	for p := range e.procs {
		if p.blocked {
			p.abort()
		}
	}
}

// LiveProcs reports the number of processes that have started but not
// finished. Only tests read it, among them the open-loop test in
// internal/experiments, which is why it is exported.
func (e *Env) LiveProcs() int { return len(e.procs) }

// Pending reports the number of entries in the event queue. A Lane counts
// as one however many timers it holds, and as none once the timers left
// behind its last fired head had all gone stale.
func (e *Env) Pending() int { return e.queue.n }

// ---------------------------------------------------------------------------
// Processes

// Proc is a cooperative simulation process. Its methods must only be called
// from within the process's own function.
type Proc struct {
	env     *Env
	name    string
	resume  chan resumeMsg
	yielded chan struct{}
	blocked bool
	err     error
	done    *Event
}

type resumeMsg struct {
	val   any
	abort bool
}

// Go starts fn as a new process. The returned Proc's Done event triggers
// (with the value nil) when fn returns.
func (e *Env) Go(name string, fn func(p *Proc) error) *Proc {
	p := &Proc{
		env:     e,
		name:    name,
		resume:  make(chan resumeMsg),
		yielded: make(chan struct{}),
	}
	p.done = NewEvent(e)
	e.procs[p] = struct{}{}
	// The process starts at the current instant, via the queue, so that Go
	// during another process's execution is deterministic.
	e.Schedule(0, func() {
		go p.body(fn)
		<-p.yielded
	})
	return p
}

func (p *Proc) body(fn func(p *Proc) error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errAbortSentinel); ok {
				p.err = ErrAborted
			} else {
				// Re-panicking here would crash on the process goroutine
				// with a useless stack for the scheduler; record and fail
				// the run instead.
				p.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
				p.env.Fail(p.err)
			}
		}
		delete(p.env.procs, p)
		p.done.Trigger(nil)
		p.yielded <- struct{}{}
	}()
	p.err = fn(p)
}

// yield hands control back to the scheduler and blocks until resumed.
func (p *Proc) yield() resumeMsg {
	p.blocked = true
	p.yielded <- struct{}{}
	msg := <-p.resume
	p.blocked = false
	if msg.abort {
		panic(errAbortSentinel{})
	}
	return msg
}

// wake schedules delivery of val to the blocked process at the current
// instant.
func (p *Proc) wake(val any) {
	p.resume <- resumeMsg{val: val}
	<-p.yielded
}

func (p *Proc) abort() {
	p.resume <- resumeMsg{abort: true}
	<-p.yielded
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Err returns the error the process function returned (nil until the
// process finishes; ErrAborted if it was shut down while blocked).
func (p *Proc) Err() error { return p.err }

// Done returns an event that triggers when the process finishes.
func (p *Proc) Done() *Event { return p.done }

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.Schedule(d, func() { p.wake(nil) })
	p.yield()
}

// Wait blocks until ev triggers and returns the value it was triggered
// with. If ev already triggered, Wait returns immediately without yielding.
func (p *Proc) Wait(ev *Event) any {
	if ev.triggered {
		return ev.val
	}
	ev.waiters = append(ev.waiters, p)
	return p.yield().val
}

// ---------------------------------------------------------------------------
// Events

// Event is a one-shot occurrence processes can wait on. Triggering an
// already-triggered event is a no-op.
type Event struct {
	env       *Env
	triggered bool
	val       any
	waiters   []*Proc
}

// NewEvent returns an untriggered event bound to e.
func NewEvent(e *Env) *Event { return &Event{env: e} }

// Trigger fires the event, waking all waiters at the current instant in
// registration order. Subsequent Wait calls return immediately with val.
func (ev *Event) Trigger(val any) {
	if ev.triggered {
		return
	}
	ev.triggered = true
	ev.val = val
	waiters := ev.waiters
	ev.waiters = nil
	for _, p := range waiters {
		proc := p
		ev.env.Schedule(0, func() { proc.wake(ev.val) })
	}
}

// Value returns the value the event was triggered with (nil before firing).
func (ev *Event) Value() any { return ev.val }
