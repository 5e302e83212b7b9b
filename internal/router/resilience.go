package router

import (
	"time"

	"skyfaas/internal/faas"
	"skyfaas/internal/metrics"
	"skyfaas/internal/rng"
)

// Resilience is a burst's graceful-degradation envelope: per-slot retry
// budgets with exponential backoff and jitter, tail-latency hedging, a
// per-zone circuit breaker, and automatic failover to the next-best
// characterized zone when the breaker opens. A nil *Resilience on BurstSpec
// reproduces the legacy burst behavior exactly (unbounded retries, fixed
// 50 ms failure backoff, no breaker).
type Resilience struct {
	// Retry bounds per-slot platform-failure attempts (default: 3 attempts,
	// 50 ms base backoff doubling to a 5 s cap, ±20% jitter). Slots that
	// exhaust the budget are abandoned and counted in BurstResult.Abandoned.
	Retry faas.RetryPolicy
	// Hedge duplicates slots that have not answered within Hedge.After; the
	// first response wins and the loser is abandoned on arrival (its cost is
	// still billed — a FaaS execution cannot be recalled, only ignored).
	// Zero value = no hedging.
	Hedge HedgePolicy
	// NoBreaker disables the circuit breaker (and with it, failover).
	NoBreaker bool
	// Failover lets the burst re-route queued slots to the next-best
	// characterized candidate zone while the current zone's breaker rejects
	// traffic.
	Failover bool
}

// HedgePolicy duplicates a slow slot: if no response arrives within After,
// a hedge copy is issued and the first response wins. The zero value
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

// DefaultResilience returns the full protection envelope: bounded retries
// with jittered backoff, breaker, and failover (hedging stays opt-in).
func DefaultResilience() *Resilience {
	return &Resilience{Failover: true}
}

func (rs *Resilience) withDefaults() *Resilience {
	if rs == nil {
		return nil
	}
	c := *rs
	if c.Retry.MaxAttempts == 0 {
		c.Retry.MaxAttempts = 3
	}
	if c.Retry.JitterFrac == 0 {
		c.Retry.JitterFrac = 0.2
	}
	return &c
}

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
