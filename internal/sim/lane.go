package sim

import "time"

// Lane is a FIFO of timers that all share one delay: Push(v) runs fn(v) at
// Now()+delay unless the timer has gone stale by then. Every live timer
// fires exactly where Schedule(delay, ...) would have — same virtual time,
// same place among events at that instant — but the lane keeps only its
// head in the event queue instead of one entry per timer, and a stale timer
// is dropped instead of fired.
//
// The argument: Push reserves the timer's (at, seq) the moment it is
// called, from the same counter Schedule draws on. The delay is constant,
// the clock never moves backwards and sequence numbers only grow, so the
// FIFO is sorted by (at, seq) and its head is always its earliest timer.
// When the head fires, the next live timer enters the queue under its own
// reserved (at, seq), which no event that has not yet fired can precede
// out of order. Staleness is the caller's predicate over a timer's value
// and its seq, which Push returns so the caller can key its own state to
// the timer. It must be monotone — once stale, always stale — so a timer
// found stale early is one whose Schedule form would have fired as a
// no-op. Such timers are skipped when the head advances and compacted out
// when a Push finds the lane full, so the lane holds the timers whose
// reason is still live, not every timer ever armed; a run executes the
// Schedule form's events minus those no-ops (all of them but a head that
// went stale after it was queued, which fires and calls nothing).
//
// Keep-alive expiry is the use: every idle function instance arms the same
// five-minute timer, hundreds of thousands per characterization, and most
// are voided by a reuse long before they fire. The event queue would hold
// those timers in one sorted run of its own, since they share a delay, so
// the lane's job is memory, not queue depth: a keep-alive timer here is one
// 24-byte slot with no closure, where Schedule needs a closure per timer to
// carry v, and a voided one is reclaimed at the next compaction instead of
// five virtual minutes later. A Lane rewritten as Schedule with a payload
// raised paper_repro's peak RSS from 37 to 47 MB.
// A lane belongs to one Env and must be pushed to only from its events.
type Lane[T any] struct {
	env   *Env
	delay time.Duration
	fn    func(T)
	stale func(T, uint64) bool
	// fire is l.tick bound once, so arming the head does not allocate.
	fire func()
	// q[head:] are the armed timers, oldest first; q[head] is in the queue.
	q    []laneTimer[T]
	head int
	// work counts the timers the lane examines or moves past a push or a
	// fire of its own, so a test can bound the cost of compaction.
	work uint64
}

type laneTimer[T any] struct {
	at  time.Duration
	seq uint64
	v   T
}

// NewLane returns an empty lane on e whose timers run fn after delay unless
// stale, which must be monotone, reports them void; it is passed each
// timer's value and the seq its Push returned. A negative delay means the
// current instant, as it does for Schedule.
func NewLane[T any](e *Env, delay time.Duration, fn func(T), stale func(T, uint64) bool) *Lane[T] {
	if delay < 0 {
		delay = 0
	}
	l := &Lane[T]{env: e, delay: delay, fn: fn, stale: stale}
	l.fire = l.tick
	return l
}

// Len reports the timers the lane holds: the queued head and the later
// timers it has not dropped yet, some of which may have gone stale since.
func (l *Lane[T]) Len() int { return len(l.q) - l.head }

// Push arms one timer: fn(v) runs at Now()+delay, in the order
// Schedule(delay, func() { fn(v) }) called here would have given it,
// unless the timer has gone stale by then. It returns the timer's seq, the
// key stale is later asked about. Once the lane has grown to its working
// size it does not allocate (TestLaneAllocs).
func (l *Lane[T]) Push(v T) uint64 {
	e := l.env
	e.seq++
	if len(l.q) > 0 && len(l.q) == cap(l.q) {
		l.compact()
	}
	l.q = append(l.q, laneTimer[T]{at: e.now + l.delay, seq: e.seq, v: v})
	if len(l.q)-l.head == 1 {
		l.arm()
	}
	return e.seq
}

// compact slides the timers of a full lane down to its start, dropping the
// stale ones behind the head (the head stays: it is in the queue). When
// that frees less than half the lane it doubles the lane as well, so the
// next compaction is at least half a lane of pushes away either way, which
// keeps Push amortized O(1).
func (l *Lane[T]) compact() {
	q := l.q
	q[0] = q[l.head]
	n := 1
	for _, t := range q[l.head+1:] {
		if !l.stale(t.v, t.seq) {
			q[n] = t
			n++
		}
	}
	clear(q[n:])
	l.work += uint64(len(q) - l.head)
	if 2*n > cap(q) {
		q = append(make([]laneTimer[T], 0, 2*cap(q)), q[:n]...)
		l.work += uint64(n)
	}
	l.q, l.head = q[:n], 0
}

// tick fires the head timer after putting the next live one in the queue,
// so a Push from fn sees a lane whose head is already armed.
func (l *Lane[T]) tick() {
	t := l.q[l.head]
	l.q[l.head] = laneTimer[T]{} // release v to the GC
	l.head++
	for l.head < len(l.q) && l.stale(l.q[l.head].v, l.q[l.head].seq) {
		l.q[l.head] = laneTimer[T]{}
		l.head++
		l.work++
	}
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
			l.work += uint64(n)
		}
		l.arm()
	}
	if !l.stale(t.v, t.seq) {
		l.fn(t.v)
	}
}

// arm puts the head timer in the event queue under its reserved (at, seq).
func (l *Lane[T]) arm() {
	t := &l.q[l.head]
	l.env.queue.push(t.at, t.seq, l.fire)
}
