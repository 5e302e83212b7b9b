package faas

import (
	"errors"
	"fmt"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/sim"
)

// This file is the invocation envelope: an InvokeSpec carries the call, its
// deadline, its retry budget and its hedge policy, and one record, the
// envelope, carries a logical invocation under that spec from its first
// attempt to its answer as event-queue continuations, with no process of
// its own. Do blocks a process on it and DoFunc calls back. Start takes no
// spec: it sends one bare attempt straight to the cloud, which is what the
// router's reissue loop and the sampler's polls want.

// ErrDeadlineExceeded is returned when an invocation's deadline elapses
// before any attempt produced a response, or when the backoff before the
// next attempt would end past it; the error then wraps the last attempt's
// too.
var ErrDeadlineExceeded = errors.New("faas: invocation deadline exceeded")

// Backoff grows by backoffMultiplier per retry and is capped at maxBackoff,
// for every policy.
const (
	backoffMultiplier = 2
	maxBackoff        = 5 * time.Second
)

// RetryPolicy bounds and paces re-attempts after transient platform
// failures (throttles, saturation, zone outages). The zero value means a
// single attempt with no retries.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first
	// (0 or 1 = no retries).
	MaxAttempts int
	// BaseBackoff is the pause before the first retry (default 50 ms);
	// each retry doubles it, up to maxBackoff.
	BaseBackoff time.Duration
	// JitterFrac spreads each backoff uniformly within ±JitterFrac of
	// itself, drawn from the client's seeded stream so two same-seed runs
	// jitter identically (default 0 = no jitter).
	JitterFrac float64
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseBackoff <= 0 {
		return 50 * time.Millisecond
	}
	return p.BaseBackoff
}

// Backoff returns the pause before retry number n (1-based), applying
// exponential growth, the cap, and jitter drawn from rand. A nil rand or
// zero JitterFrac yields the deterministic un-jittered schedule.
func (p RetryPolicy) Backoff(n int, rand JitterSource) time.Duration {
	d := float64(p.base())
	for i := 1; i < n; i++ {
		d *= backoffMultiplier
		if d >= float64(maxBackoff) {
			break
		}
	}
	if d > float64(maxBackoff) {
		d = float64(maxBackoff)
	}
	if p.JitterFrac > 0 && rand != nil {
		d = rand.Jitter(d, p.JitterFrac)
	}
	return time.Duration(d)
}

// JitterSource is the slice of rng.Stream the backoff path needs; taking an
// interface keeps the policy testable with a fixed source.
type JitterSource interface {
	Jitter(v, amount float64) float64
}

// HedgePolicy duplicates a slow invocation: if no response arrives within
// After, a hedge copy is issued and the first response wins. The zero value
// disables hedging.
type HedgePolicy struct {
	// After is the latency threshold that triggers a hedge (0 = disabled).
	After time.Duration
	// Max is how many hedge copies may be issued per attempt (default 1).
	Max int
}

// MaxHedges is the effective hedge budget per attempt (Max, min 1).
func (h HedgePolicy) MaxHedges() int {
	if h.Max < 1 {
		return 1
	}
	return h.Max
}

// Enabled reports whether the policy triggers hedges.
func (h HedgePolicy) Enabled() bool { return h.After > 0 }

// InvokeSpec fully describes one logical invocation: the call plus its
// failure-handling envelope, written as a literal.
type InvokeSpec struct {
	Call Call
	// Deadline bounds the whole invocation — every attempt, backoff, and
	// hedge — in virtual time (0 = unbounded).
	Deadline time.Duration
	// Retry is the transient-failure budget.
	Retry RetryPolicy
	// Hedge is the tail-latency duplication policy.
	Hedge HedgePolicy
}

// NewInvokeSpec returns the zero envelope around call: a single attempt, no
// hedge, no deadline.
func NewInvokeSpec(call Call) InvokeSpec { return InvokeSpec{Call: call} }

// Retryable reports whether err is a transient platform failure worth
// re-attempting (throttle, saturation, injected zone outage).
func Retryable(err error) bool {
	return errors.Is(err, cloudsim.ErrThrottled) ||
		errors.Is(err, cloudsim.ErrSaturated) ||
		errors.Is(err, cloudsim.ErrZoneOutage)
}

// envelope is one logical invocation in flight: its spec, when it began,
// the attempt it is on and that attempt's answer. Its steps — send an
// attempt, settle an answer, send again after a backoff — each run as an
// event, scheduled as a method value bound once when the record was made.
//
// A plain envelope (no hedge, no deadline) has one request out at a time
// and no timer, so once it completes nothing refers to it, and it goes
// back to its client's free list. A hedged or timed attempt arms timers,
// and hedge losers answer after the winner, so those records are left to
// the collector.
type envelope struct {
	c     *Client
	spec  InvokeSpec
	start time.Time
	// attempt is the number of the attempt in flight (1-based); answered
	// marks that resp holds its answer: the first response, or the
	// deadline's error.
	attempt  int
	answered bool
	resp     cloudsim.Response
	// The final answer goes to done; or, for Do, ev triggers and Do reads
	// resp.
	done func(cloudsim.Response)
	ev   *sim.Event

	sendFn, settleFn func()
	onAnswer         func(cloudsim.Response)
}

// envelope returns a fresh record of spec, begun now.
func (c *Client) envelope(spec InvokeSpec) *envelope {
	var r *envelope
	if n := len(c.free); n > 0 {
		r, c.free = c.free[n-1], c.free[:n-1]
	} else {
		r = new(envelope)
		r.sendFn, r.settleFn, r.onAnswer = r.send, r.settle, r.answerPlain
	}
	r.c, r.spec, r.start = c, spec, c.cloud.Env().Now()
	return r
}

// plain reports whether the envelope's attempts arm no timers.
func (r *envelope) plain() bool { return !r.spec.Hedge.Enabled() && r.spec.Deadline <= 0 }

// recycle returns a plain envelope to its client's free list at its last
// use.
func (r *envelope) recycle() {
	if r.plain() {
		c := r.c
		*r = envelope{sendFn: r.sendFn, settleFn: r.settleFn, onAnswer: r.onAnswer}
		c.free = append(c.free, r)
	}
}

// send issues the next attempt, or completes the envelope with
// ErrDeadlineExceeded if the deadline has passed. A hedged attempt arms a
// timer for each hedge it may launch, a timed one a timer for what is left
// of the deadline; both are no-ops if the attempt has its answer by then.
func (r *envelope) send() {
	env, c := r.c.cloud.Env(), r.c
	r.attempt, r.answered = r.attempt+1, false
	if r.plain() {
		c.cloud.StartInvoke(c.request(r.spec.Call), r.onAnswer)
		return
	}
	remaining := time.Duration(-1)
	if r.spec.Deadline > 0 {
		remaining = r.spec.Deadline - env.Now().Sub(r.start)
		if remaining <= 0 {
			r.resp = cloudsim.Response{Err: ErrDeadlineExceeded, Sent: env.Now()}
			r.complete()
			return
		}
	}
	n := r.attempt
	launch := func() {
		c.cloud.StartInvoke(c.request(r.spec.Call), func(resp cloudsim.Response) { r.answer(n, resp) })
	}
	launch()
	if r.spec.Hedge.Enabled() {
		var arm func(left int)
		arm = func(left int) {
			if left == 0 {
				return
			}
			env.Schedule(r.spec.Hedge.After, func() {
				if r.attempt != n || r.answered {
					return
				}
				launch()
				arm(left - 1)
			})
		}
		arm(r.spec.Hedge.MaxHedges())
	}
	if remaining >= 0 {
		env.Schedule(remaining, func() {
			r.answer(n, cloudsim.Response{Err: ErrDeadlineExceeded, Sent: env.Now()})
		})
	}
}

// answerPlain takes the response of a plain attempt, its only request.
func (r *envelope) answerPlain(resp cloudsim.Response) { r.answer(r.attempt, resp) }

// answer takes attempt n's first answer and settles it at this instant,
// via the queue. Later answers to it — hedge losers, a response after the
// deadline — are dropped: a FaaS request cannot be recalled, only ignored.
func (r *envelope) answer(n int, resp cloudsim.Response) {
	if r.attempt != n || r.answered {
		return
	}
	r.answered, r.resp = true, resp
	r.c.cloud.Env().Schedule(0, r.settleFn)
}

// settle completes the envelope with the attempt's answer, unless it is a
// transient failure with attempts left: then the next attempt is sent
// after a backoff, if that ends inside the deadline.
func (r *envelope) settle() {
	resp := r.resp
	if resp.OK() || !Retryable(resp.Err) || r.attempt >= r.spec.Retry.maxAttempts() {
		r.complete()
		return
	}
	now := r.c.cloud.Env().Now()
	pause := r.spec.Retry.Backoff(r.attempt, r.c.rand)
	if r.spec.Deadline > 0 && now.Add(pause).Sub(r.start) >= r.spec.Deadline {
		// Backing off would run past the deadline: give up now, with both
		// causes.
		r.resp.Err = fmt.Errorf("%w after %d attempts: %w", ErrDeadlineExceeded, r.attempt, resp.Err)
		r.complete()
		return
	}
	r.c.cloud.Env().Schedule(pause, r.sendFn)
}

// complete hands the final answer over: to done, after the record is
// recycled so done may start the next invocation with it; or, for Do, by
// triggering ev.
func (r *envelope) complete() {
	if r.ev != nil {
		r.ev.Trigger(nil)
		return
	}
	resp, done := r.resp, r.done
	r.recycle()
	done(resp)
}

// Do performs one logical invocation under spec's envelope, blocking the
// calling process: attempts are retried per the retry policy, each attempt
// may be hedged, and the deadline bounds the whole affair. With a zero
// spec it is one blocking attempt.
func (c *Client) Do(p *sim.Proc, spec InvokeSpec) cloudsim.Response {
	r := c.envelope(spec)
	r.ev = sim.NewEvent(c.cloud.Env())
	r.send()
	p.Wait(r.ev)
	resp := r.resp
	r.recycle()
	return resp
}

// DoFunc starts a logical invocation under spec's envelope and calls done
// with its answer: the form for a caller that fans out thousands of
// invocations, since no process waits on any of them. done runs at the
// instant the answer arrives, via the queue, after the events already
// queued for that instant.
func (c *Client) DoFunc(spec InvokeSpec, done func(cloudsim.Response)) {
	r := c.envelope(spec)
	r.done = done
	r.send()
}
