package router

import (
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// The classic three-state circuit.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Every zone's breaker runs at the same settings.
const (
	// breakerWindow is the sliding error-rate window.
	breakerWindow = 10 * time.Second
	// breakerMinRequests is the minimum sample count inside the window
	// before the breaker may trip, so small bursts never trip on noise.
	breakerMinRequests = 20
	// breakerFailureRate is the windowed failure fraction that trips it.
	breakerFailureRate = 0.5
	// breakerOpenFor is how long a tripped breaker rejects traffic before
	// probing again.
	breakerOpenFor = 30 * time.Second
	// breakerHalfOpenMax is how many probe requests half-open admits; that
	// many consecutive successes re-close the circuit, any failure
	// re-opens it.
	breakerHalfOpenMax = 5
)

type breakerSample struct {
	at time.Time
	ok bool
}

// Breaker is a closed → open → half-open circuit breaker driven entirely by
// simulated time: every transition hangs off the `now` its caller passes in,
// so breaker behavior replays bit-identically with the run. It shares the
// simulation's single-threaded discipline and needs no locking.
type Breaker struct {
	state    BreakerState
	samples  []breakerSample // outcomes inside the sliding window (closed only)
	openedAt time.Time
	probes   int // probe requests admitted while half-open
	probeOKs int // consecutive probe successes while half-open
	onChange func(from, to BreakerState)
}

// NewBreaker returns a closed breaker.
func NewBreaker() *Breaker { return &Breaker{} }

// OnTransition installs a state-change hook (instrumentation).
func (b *Breaker) OnTransition(fn func(from, to BreakerState)) { b.onChange = fn }

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState { return b.state }

func (b *Breaker) transition(now time.Time, to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	switch to {
	case BreakerOpen:
		b.openedAt = now
		b.samples = b.samples[:0]
	case BreakerHalfOpen:
		b.probes, b.probeOKs = 0, 0
	case BreakerClosed:
		b.samples = b.samples[:0]
	}
	if b.onChange != nil {
		b.onChange(from, to)
	}
}

// Admits reports whether a request issued at now would be allowed, without
// consuming half-open probe budget — the side-effect-free form failover uses
// to filter candidate zones.
func (b *Breaker) Admits(now time.Time) bool {
	switch b.state {
	case BreakerOpen:
		return now.Sub(b.openedAt) >= breakerOpenFor
	case BreakerHalfOpen:
		return b.probes < breakerHalfOpenMax
	default:
		return true
	}
}

// Allow gates one request at now: closed admits everything, open rejects
// until breakerOpenFor has elapsed (then flips to half-open), and half-open
// admits up to breakerHalfOpenMax probes. An admitted request must be answered with a
// Record call.
func (b *Breaker) Allow(now time.Time) bool {
	if b.state == BreakerOpen && now.Sub(b.openedAt) >= breakerOpenFor {
		b.transition(now, BreakerHalfOpen)
	}
	switch b.state {
	case BreakerOpen:
		return false
	case BreakerHalfOpen:
		if b.probes >= breakerHalfOpenMax {
			return false
		}
		b.probes++
		return true
	default:
		return true
	}
}

// Record feeds one request outcome at now. In the closed state outcomes
// accumulate in the sliding window and trip the breaker when the failure
// rate crosses the threshold; in half-open a failure re-opens the circuit
// and breakerHalfOpenMax consecutive successes re-close it. Outcomes arriving while
// open (stragglers from before the trip) are dropped.
func (b *Breaker) Record(now time.Time, ok bool) {
	switch b.state {
	case BreakerOpen:
		return
	case BreakerHalfOpen:
		if !ok {
			b.transition(now, BreakerOpen)
			return
		}
		b.probeOKs++
		if b.probeOKs >= breakerHalfOpenMax {
			b.transition(now, BreakerClosed)
		}
		return
	}
	// Closed: slide the window forward and append.
	cutoff := now.Add(-breakerWindow)
	keep := b.samples[:0]
	for _, s := range b.samples {
		if s.at.After(cutoff) {
			keep = append(keep, s)
		}
	}
	b.samples = append(keep, breakerSample{at: now, ok: ok})
	if len(b.samples) < breakerMinRequests {
		return
	}
	failed := 0
	for _, s := range b.samples {
		if !s.ok {
			failed++
		}
	}
	if float64(failed)/float64(len(b.samples)) >= breakerFailureRate {
		b.transition(now, BreakerOpen)
	}
}
