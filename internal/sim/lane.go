package sim

import "time"

// Lane is a FIFO of timers that all share one delay: Push(v) runs fn(v) at
// Now()+delay. It fires every timer exactly where Schedule(delay, ...)
// would have — same virtual time, same place among events at that instant
// — but keeps only its head in the event queue instead of one entry per
// timer.
//
// The argument: Push reserves the timer's (at, seq) the moment it is
// called, from the same counter Schedule draws on. The delay is constant,
// the clock never moves backwards and sequence numbers only grow, so the
// FIFO is sorted by (at, seq) and its head is always its earliest timer.
// When the head fires, the next timer enters the queue under its own
// reserved (at, seq), which no event that has not yet fired can precede
// out of order. Timers are never cancelled: a timer whose reason has gone
// stale still fires, and fn decides it is a no-op, so the number of events
// a run executes is that of the Schedule form too.
//
// Keep-alive expiry is the use: every idle function instance in a zone arms
// the same five-minute timer, hundreds of thousands per characterization.
// The event queue would hold those timers in one sorted run of its own,
// since they share a delay, so the lane's job is memory, not queue depth:
// a keep-alive timer here is one 32-byte slot with no closure, where
// Schedule needs a closure per timer to carry v. A Lane rewritten as
// Schedule with a payload raised paper_repro's peak RSS from 37 to 47 MB.
// A lane belongs to one Env and must be pushed to only from its events.
type Lane[T any] struct {
	env   *Env
	delay time.Duration
	fn    func(T)
	// fire is l.tick bound once, so arming the head does not allocate.
	fire func()
	// q[head:] are the armed timers, oldest first; q[head] is in the queue.
	q    []laneTimer[T]
	head int
}

type laneTimer[T any] struct {
	at  time.Duration
	seq uint64
	v   T
}

// NewLane returns an empty lane on e whose timers run fn after delay. A
// negative delay means the current instant, as it does for Schedule.
func NewLane[T any](e *Env, delay time.Duration, fn func(T)) *Lane[T] {
	if delay < 0 {
		delay = 0
	}
	l := &Lane[T]{env: e, delay: delay, fn: fn}
	l.fire = l.tick
	return l
}

// Push arms one timer: fn(v) runs at Now()+delay, in the order
// Schedule(delay, func() { fn(v) }) called here would have given it.
//
//lint:hotpath
func (l *Lane[T]) Push(v T) {
	e := l.env
	e.seq++
	l.q = append(l.q, laneTimer[T]{at: e.now + l.delay, seq: e.seq, v: v}) //lint:allow hotalloc -- amortized lane growth; steady state reuses capacity
	if len(l.q)-l.head == 1 {
		l.arm()
	}
}

// tick fires the head timer after putting the next one in the queue, so a
// Push from fn sees a lane whose head is already armed.
//
//lint:hotpath
func (l *Lane[T]) tick() {
	t := l.q[l.head]
	l.q[l.head] = laneTimer[T]{} // release v to the GC
	l.head++
	if n := len(l.q) - l.head; n == 0 {
		l.q, l.head = l.q[:0], 0
	} else {
		if l.head > n {
			// Slide the armed timers down once the fired ones outnumber
			// them, so a lane that never drains does not creep through
			// ever more memory; each timer moves at most once per slot it
			// passes, which keeps the cost amortized O(1).
			copy(l.q, l.q[l.head:])
			clear(l.q[n:])
			l.q, l.head = l.q[:n], 0
		}
		l.arm()
	}
	l.fn(t.v)
}

// arm puts the head timer in the event queue under its reserved (at, seq).
func (l *Lane[T]) arm() {
	t := &l.q[l.head]
	l.env.queue.push(t.at, t.seq, l.fire)
}
