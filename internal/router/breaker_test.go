package router

import (
	"testing"
	"time"
)

// TestBreakerTransitions drives the circuit through its lifecycle with an
// explicit virtual clock: each step either records an outcome or asks for
// admission at a given sim-time offset, and asserts the resulting state.
func TestBreakerTransitions(t *testing.T) {
	epoch := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	type step struct {
		at        time.Duration
		op        string // "ok", "fail", "allow", "deny"
		wantState BreakerState
	}
	// Outcomes land 100 ms apart, well inside the sliding window.
	at := func(i int) time.Duration { return time.Duration(i) * 100 * time.Millisecond }
	// trip fails breakerMinRequests requests: the breaker stays closed until
	// the last one, then opens at tripped.
	tripped := at(breakerMinRequests - 1)
	trip := func(more ...step) []step {
		var out []step
		for i := 0; i < breakerMinRequests; i++ {
			want := BreakerClosed // fewer than breakerMinRequests samples
			if i == breakerMinRequests-1 {
				want = BreakerOpen // every sample failed, >= 50%
			}
			out = append(out, step{at(i), "fail", want})
		}
		return append(out, more...)
	}
	halfOpen := tripped + breakerOpenFor + 7*time.Second
	var healthy, sliding, reclose, probes []step
	for i := 0; i < breakerMinRequests; i++ {
		op := "ok"
		if i%4 == 2 {
			op = "fail" // 1 in 4 failed < 50%
		}
		healthy = append(healthy, step{at(i), op, BreakerClosed})
	}
	healthy = append(healthy, step{at(breakerMinRequests), "allow", BreakerClosed})
	for i := 0; i < breakerMinRequests-1; i++ {
		sliding = append(sliding, step{at(i), "fail", BreakerClosed})
	}
	// Past the window the earlier failures have aged out: one more failure
	// is a single sample, too few to trip.
	sliding = append(sliding, step{breakerWindow + 5*time.Second, "fail", BreakerClosed})
	for i := 0; i < breakerHalfOpenMax; i++ {
		want := BreakerHalfOpen
		if i == breakerHalfOpenMax-1 {
			want = BreakerClosed // breakerHalfOpenMax successes
		}
		reclose = append(reclose, step{halfOpen + time.Duration(i)*time.Second, "ok", want})
	}
	reclose = append(reclose, step{halfOpen + breakerHalfOpenMax*time.Second, "allow", BreakerClosed})
	for i := 0; i < breakerHalfOpenMax; i++ {
		probes = append(probes, step{halfOpen, "allow", BreakerHalfOpen})
	}
	probes = append(probes, step{halfOpen, "deny", BreakerHalfOpen}) // probe budget spent
	cases := []struct {
		name  string
		steps []step
	}{
		{name: "trips only past MinRequests", steps: trip()},
		{name: "healthy traffic never trips", steps: healthy},
		{name: "window slides old failures out", steps: sliding},
		{
			name: "open rejects until OpenFor then half-opens",
			steps: trip(
				step{tripped + breakerOpenFor/3, "deny", BreakerOpen},                  // still inside OpenFor
				step{tripped + breakerOpenFor + time.Second, "allow", BreakerHalfOpen}, // past it
			),
		},
		{
			name: "half-open probe failure reopens",
			steps: trip(
				step{halfOpen, "allow", BreakerHalfOpen},
				step{halfOpen + time.Second, "fail", BreakerOpen},
				step{halfOpen + 10*time.Second, "deny", BreakerOpen}, // OpenFor restarts at re-trip
			),
		},
		{name: "half-open probe successes reclose", steps: trip(reclose...)},
		{name: "half-open admits only HalfOpenMax probes", steps: trip(probes...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBreaker()
			for i, s := range tc.steps {
				now := epoch.Add(s.at)
				switch s.op {
				case "ok":
					if !b.Allow(now) {
						t.Fatalf("step %d: request rejected in state %v", i, b.State())
					}
					b.Record(now, true)
				case "fail":
					if b.State() != BreakerOpen && !b.Allow(now) {
						t.Fatalf("step %d: request rejected in state %v", i, b.State())
					}
					b.Record(now, false)
				case "allow":
					if !b.Allow(now) {
						t.Fatalf("step %d: want admitted, got rejected", i)
					}
				case "deny":
					if b.Allow(now) {
						t.Fatalf("step %d: want rejected, got admitted", i)
					}
				}
				if b.State() != s.wantState {
					t.Fatalf("step %d (%s at %v): state = %v, want %v",
						i, s.op, s.at, b.State(), s.wantState)
				}
			}
		})
	}
}

// TestBreakerAdmitsIsSideEffectFree verifies the failover filter can poll a
// half-open breaker without consuming its probe budget.
func TestBreakerAdmitsIsSideEffectFree(t *testing.T) {
	epoch := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	b := NewBreaker()
	for i := 0; i < breakerMinRequests; i++ {
		b.Record(epoch, false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	later := epoch.Add(breakerOpenFor + time.Second)
	for i := 0; i < 10; i++ {
		if !b.Admits(later) {
			t.Fatal("Admits rejected past OpenFor")
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("Admits mutated state to %v", b.State())
	}
	for i := 0; i < breakerHalfOpenMax; i++ {
		if !b.Allow(later) {
			t.Fatalf("Allow rejected half-open probe %d of %d", i+1, breakerHalfOpenMax)
		}
	}
	if b.Allow(later) {
		t.Fatal("probe budget not enforced after Admits polling")
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}
