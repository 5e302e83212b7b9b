package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Pacing constants. They describe what a host's timers can do, not what a
// deployment wants, so they are constants and not options.
const (
	// pacedSlack is how far ahead of its deadline an event may fire, in
	// wall time. It coalesces wake-ups: events due within it of the clock
	// fire together after one wait, instead of one wait each for gaps too
	// short to be worth a trip through the scheduler.
	pacedSlack = 200 * time.Microsecond
	// pacedDebtCap bounds how much lateness the loop repays by firing
	// events back to back. A stall longer than this (a suspended process,
	// an event storm the CPU cannot keep up with) is forgiven: the schedule
	// restarts from the next event instead of racing to catch up.
	pacedDebtCap = 100 * time.Millisecond
	// pacedTail is the end of a wait that a napper sleeps out instead of
	// the timer. Once a process has a network descriptor open, the Go
	// runtime on Linux parks its timers in epoll_wait, whose timeout is
	// whole milliseconds (a shorter delay rounds up to one, a longer one is
	// truncated), so a timer wakes up to about 1.1 ms late; set that much
	// before the deadline, it wakes in time for the napper to land on it.
	pacedTail = 1200 * time.Microsecond
	// pacedNap is the napper's longest nap: how long it takes to notice a
	// deadline moved earlier or the end of the run.
	pacedNap = 100 * time.Microsecond
)

// RunPaced is Run against the wall clock: the event at virtual time t fires
// no earlier than (run start + t/speedup) less a small slack, e.g. speedup
// 1000 plays one virtual second per wall millisecond. Pacing is by
// deadline, not by gap: lateness of one wait is repaid by the events after
// it, so virtual time tracks the wall clock instead of falling behind by
// every timer's overshoot. The event order is that of Run.
//
// inject, when non-nil, makes the run a live server's loop. A function
// received on it runs on the simulation goroutine at once — a wait in
// progress is interrupted — at the virtual instant the wall clock implies,
// clamped so the clock never moves backwards nor past the next queued
// event. With inject set an empty queue does not end the run: it blocks
// for the next command, and returns only after FinishFast. A nil inject
// runs until the queue drains.
//
// report, when non-nil, is called after each wait (never per event), before
// the command that ended it runs, with how late the loop is against its
// schedule (0 when on time) and the ratio of virtual to wall time since the
// previous call. It runs on the simulation goroutine, so it may read the
// environment, e.g. Pending for the depth of the queue the loop waited on.
func (e *Env) RunPaced(speedup float64, inject <-chan func(), report func(lag time.Duration, effectiveSpeedup float64)) error {
	if speedup <= 0 {
		return fmt.Errorf("sim: non-positive speedup %v", speedup)
	}
	if e.running {
		return errors.New("sim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()

	const never = time.Duration(math.MaxInt64)
	slack := time.Duration(float64(pacedSlack) * speedup)
	debtCap := time.Duration(float64(pacedDebtCap) * speedup)

	// One timer for every wait. Its ticks are hints only — the loop reads
	// the clock after any wake-up — so a stale tick left by an interrupted
	// wait costs one spurious pass, not a wrong clock.
	timer := time.NewTimer(time.Hour) //lint:allow nodeterm -- the paced loop's one reusable wait timer
	defer timer.Stop()

	naps := startNapper()
	defer naps.stop()

	// The schedule is a line through (anchorWall, anchorVirt) with slope
	// speedup; it is re-anchored on itself at every clock read, which keeps
	// the float arithmetic small, and onto the next event when debt is
	// forgiven.
	anchorWall := time.Now() //lint:allow nodeterm -- pacing maps virtual time onto the wall clock
	anchorVirt := e.now
	read := func() time.Duration {
		now := time.Now() //lint:allow nodeterm -- pacing maps virtual time onto the wall clock
		anchorVirt += time.Duration(float64(now.Sub(anchorWall)) * speedup)
		anchorWall = now
		return anchorVirt
	}
	// Events at or before horizon are due (within slack) as of the last
	// clock read and fire without another one.
	horizon := e.now + slack
	lastWall, lastVirt := anchorWall, e.now

	for e.failure == nil && !e.fastForward.Load() {
		// A command that arrived while events were firing runs at the
		// current instant.
		select {
		case fn := <-inject:
			fn()
			continue
		default:
		}
		next := never
		if !e.queue.empty() {
			if next = e.queue.nextAt(); next <= horizon {
				e.fire()
				continue
			}
		} else if inject == nil {
			break
		}
		due := read()
		var lag time.Duration
		var cmd func()
		switch {
		case next > due+slack:
			// Ahead of schedule, or idle: wait for the deadline, a command,
			// or FinishFast. The timer covers all but the last pacedTail of
			// the wait, and the napper the rest, so the loop wakes on the
			// deadline and not on the poller's next millisecond.
			wait := never
			if next != never {
				wait = time.Duration(float64(next-due) / speedup)
			}
			if wait > pacedTail {
				if next != never {
					timer.Reset(wait - pacedTail)
				}
				select {
				case <-timer.C:
				case cmd = <-inject:
				case <-e.wake:
				}
				timer.Stop()
				due = read()
				wait = time.Duration(float64(next-due) / speedup)
			}
			// A stale tick can end the timer's wait early, so the napper
			// takes over only once the deadline is within its tail.
			if cmd == nil && next != never && !e.fastForward.Load() && wait > 0 && wait <= pacedTail {
				naps.until(anchorWall.Add(wait))
				select {
				case <-naps.ring:
				case cmd = <-inject:
				case <-e.wake:
				}
				due = read()
			}
			lag = max(due-next, 0)
		case due-next > debtCap:
			// Too far behind to repay: forgive the debt by restarting the
			// schedule from the next event.
			lag = due - next
			anchorVirt, due = next, next
		default:
			horizon = due + slack
			continue
		}
		horizon = due + slack
		// Where the wall clock puts the simulation on the virtual axis: never
		// before the clock, never past the next queued event.
		pos := min(max(due, e.now), next)
		if report != nil {
			if wall := anchorWall.Sub(lastWall); wall > 0 {
				report(time.Duration(float64(lag)/speedup), float64(pos-lastVirt)/float64(wall))
			}
			lastWall, lastVirt = anchorWall, pos
		}
		if cmd != nil {
			e.now = pos
			cmd()
		}
	}

	// FinishFast, a failure, or (without inject) a drained queue: run what
	// is left unpaced and without commands.
	for e.failure == nil && !e.queue.empty() {
		e.fire()
	}
	e.drainProcs()
	return e.failure
}

// fire pops the earliest event, advances the clock to it, and runs it.
func (e *Env) fire() {
	next := e.queue.pop()
	e.now = next.at
	next.fn()
}

// A napper sleeps out the tail of the paced loop's waits on its own
// goroutine, in naps on a kernel timer (see nap), and rings when the
// deadline has passed. The loop meanwhile blocks in a select, so a command
// or FinishFast interrupts a napped wait as promptly as a timed one: a nap
// holds only the napper's thread. Rings are hints, like the timer's ticks —
// one left over from an interrupted wait costs the loop a spurious pass.
type napper struct {
	base     time.Time
	deadline atomic.Int64 // wall nanoseconds after base
	kick     chan struct{}
	ring     chan struct{}
	exited   sync.WaitGroup
}

func startNapper() *napper {
	n := &napper{
		base: time.Now(), //lint:allow nodeterm -- the napper's deadlines are wall-clock instants
		kick: make(chan struct{}, 1),
		ring: make(chan struct{}, 1),
	}
	n.exited.Add(1)
	go n.run()
	return n
}

// until asks for a ring once the wall clock reaches at; it replaces any
// deadline asked for before.
func (n *napper) until(at time.Time) {
	select {
	case <-n.ring: // left over from an earlier deadline
	default:
	}
	n.deadline.Store(int64(at.Sub(n.base)))
	select {
	case n.kick <- struct{}{}:
	default: // a kick is pending, and the napper reads the new deadline when it takes it
	}
}

func (n *napper) run() {
	defer n.exited.Done()
	for range n.kick {
		for {
			left := time.Duration(n.deadline.Load()) - time.Since(n.base) //lint:allow nodeterm -- the napper's deadlines are wall-clock instants
			if left <= 0 {
				break
			}
			nap(min(left, pacedNap))
		}
		select {
		case n.ring <- struct{}{}:
		default:
		}
	}
}

// stop ends the napper and waits for it, at most one nap.
func (n *napper) stop() {
	n.deadline.Store(0)
	close(n.kick)
	n.exited.Wait()
}
