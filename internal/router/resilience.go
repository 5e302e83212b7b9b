package router

import (
	"time"

	"skyfaas/internal/faas"
	"skyfaas/internal/metrics"
	"skyfaas/internal/rng"
)

// Resilience is a burst's graceful-degradation envelope. Under it each
// slot gets burstRetry's budget for platform failures, and a slot that
// exhausts it is abandoned and counted in BurstResult.Abandoned. A
// per-zone circuit breaker watches those failures, and while the current
// zone's breaker rejects traffic, queued slots fail over to the next-best
// characterized candidate zone. A nil *Resilience on BurstSpec reproduces
// the legacy burst behavior exactly (unbounded retries, fixed 50 ms failure
// backoff, no breaker).
type Resilience struct {
	// NoBreaker turns the circuit breaker off, and failover with it.
	NoBreaker bool
	// Hedge duplicates a slot that has not answered within hedgeAfter,
	// once per attempt; the first response wins and the loser is dropped
	// on arrival (its cost is still billed — a FaaS execution cannot be
	// recalled, only ignored).
	Hedge bool
}

// burstRetry is a resilient slot's platform-failure budget: 3 attempts,
// backoff from faas's 50 ms base doubling to its 5 s cap, ±20% jitter.
var burstRetry = faas.RetryPolicy{MaxAttempts: 3, JitterFrac: 0.2}

// hedgeAfter is how long a hedged attempt waits for an answer before its
// one hedge goes out.
const hedgeAfter = 2 * time.Second

// DefaultResilience returns the full protection envelope: bounded retries
// with jittered backoff, breaker, and failover (hedging stays opt-in).
func DefaultResilience() *Resilience { return &Resilience{} }

func (rs *Resilience) breakerOn() bool { return rs != nil && !rs.NoBreaker }

// UseSeed derives the router's private randomness (backoff jitter) from
// seed, tying burst pacing to the experiment's run seed. Without it the
// router jitters from a fixed default stream — still deterministic, just
// not seed-varied.
func (r *Router) UseSeed(seed uint64) { r.rand = rng.New(seed).Split("router") }

// breakerFor lazily creates the zone's breaker. Later bursts share it,
// which is the point — breaker memory must outlive any one burst: a zone
// tripped by one burst stays avoided by the next until it proves healthy
// again.
func (r *Router) breakerFor(az string) *Breaker {
	if b, ok := r.breakers[az]; ok {
		return b
	}
	b := NewBreaker()
	azL := metrics.L("az", az)
	state := r.metrics.Gauge("sky_router_breaker_state",
		"per-zone circuit state (0 closed, 1 open, 2 half-open)", azL)
	state.Set(float64(BreakerClosed))
	b.OnTransition(func(from, to BreakerState) {
		state.Set(float64(to))
		r.metrics.Counter("sky_router_breaker_transitions_total",
			"circuit transitions, by zone and resulting state",
			azL, metrics.L("to", to.String())).Inc()
	})
	r.breakers[az] = b
	return b
}
