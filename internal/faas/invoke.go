package faas

import (
	"errors"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/sim"
)

// This file is the retry envelope: an InvokeSpec carries the call and its
// retry budget, and one record, the envelope, carries a logical invocation
// under that spec from its first attempt to its answer as event-queue
// continuations, with no process of its own. Do blocks a process on it and
// DoFunc calls back. Start takes no spec: it is the bare attempt, sent
// straight to the cloud, which is what the router's reissue loop and the
// sampler's polls want.

// Backoff starts at baseBackoff, grows by backoffMultiplier per retry and
// is capped at maxBackoff, for every policy.
const (
	baseBackoff       = 50 * time.Millisecond
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

// Backoff returns the pause before retry number n (1-based), applying
// exponential growth, the cap, and jitter drawn from rand. A nil rand or
// zero JitterFrac yields the deterministic un-jittered schedule.
func (p RetryPolicy) Backoff(n int, rand JitterSource) time.Duration {
	d := float64(baseBackoff)
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

// InvokeSpec fully describes one logical invocation: the call plus its
// retry envelope, written as a literal.
type InvokeSpec struct {
	Call Call
	// Retry is the transient-failure budget.
	Retry RetryPolicy
}

// NewInvokeSpec returns the zero envelope around call: a single attempt.
func NewInvokeSpec(call Call) InvokeSpec { return InvokeSpec{Call: call} }

// Retryable reports whether err is a transient platform failure worth
// re-attempting (throttle, saturation, injected zone outage).
func Retryable(err error) bool {
	return errors.Is(err, cloudsim.ErrThrottled) ||
		errors.Is(err, cloudsim.ErrSaturated) ||
		errors.Is(err, cloudsim.ErrZoneOutage)
}

// envelope is one logical invocation in flight: its spec, the attempt it
// is on and that attempt's answer. Its steps — send an attempt, settle an
// answer, send again after a backoff — each run as an event, scheduled as a
// method value bound once when the record was made. An envelope has one
// request out at a time, and only its own next step is ever scheduled, so
// once it completes nothing refers to it, and it goes back to its client's
// free list.
type envelope struct {
	c    *Client
	spec InvokeSpec
	// attempt is the number of the attempt in flight (1-based), and resp
	// its answer.
	attempt int
	resp    cloudsim.Response
	// The final answer goes to done; or, for Do, ev triggers and Do reads
	// resp.
	done func(cloudsim.Response)
	ev   *sim.Event

	sendFn, settleFn func()
	answerFn         func(cloudsim.Response)
}

// envelope returns a fresh record of spec.
func (c *Client) envelope(spec InvokeSpec) *envelope {
	var r *envelope
	if n := len(c.free); n > 0 {
		r, c.free = c.free[n-1], c.free[:n-1]
	} else {
		r = new(envelope)
		r.sendFn, r.settleFn, r.answerFn = r.send, r.settle, r.answer
	}
	r.c, r.spec = c, spec
	return r
}

// recycle returns the envelope to its client's free list at its last use.
func (r *envelope) recycle() {
	c := r.c
	*r = envelope{sendFn: r.sendFn, settleFn: r.settleFn, answerFn: r.answerFn}
	c.free = append(c.free, r)
}

// send issues the next attempt.
func (r *envelope) send() {
	r.attempt++
	r.c.cloud.StartInvoke(r.c.request(r.spec.Call), r.answerFn)
}

// answer takes the attempt's response and settles it at this instant, via
// the queue.
func (r *envelope) answer(resp cloudsim.Response) {
	r.resp = resp
	r.c.cloud.Env().Schedule(0, r.settleFn)
}

// settle completes the envelope with the attempt's answer, unless it is a
// transient failure with attempts left: then the next attempt is sent
// after a backoff.
func (r *envelope) settle() {
	if r.resp.OK() || !Retryable(r.resp.Err) || r.attempt >= r.spec.Retry.maxAttempts() {
		r.complete()
		return
	}
	r.c.cloud.Env().Schedule(r.spec.Retry.Backoff(r.attempt, r.c.rand), r.sendFn)
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
// calling process: attempts are retried per the retry policy. With a zero
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
