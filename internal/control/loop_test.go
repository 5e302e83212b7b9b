package control

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"skyfaas/internal/metrics"
	"skyfaas/internal/sim"
)

type mode string

func newLoop(t *testing.T, env *sim.Env, step func(), reg *metrics.Registry) *Loop[mode] {
	t.Helper()
	l, err := NewLoop(env, Spec[mode]{
		Name: "test", Modes: []mode{"off", "on"}, Mode: "off",
		TickEvery: time.Minute, RatePerHour: 0.5, Cap: 1,
	}, step, reg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestTickOrder pins the order every maintainer's output depends on: a
// tick runs the step and only then schedules the next tick, so an event
// the step schedules one period out fires before that tick.
func TestTickOrder(t *testing.T) {
	env := sim.NewEnv(epoch)
	reg := metrics.NewRegistry()
	var got []string
	var l *Loop[mode]
	l = newLoop(t, env, func() {
		n := l.Ticks()
		got = append(got, fmt.Sprint("tick ", n))
		env.Schedule(time.Minute, func() { got = append(got, fmt.Sprint("step ", n)) })
	}, reg)
	l.Start()
	env.Schedule(3*time.Minute+time.Second, l.Stop)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"tick 1", "step 1", "tick 2", "step 2", "tick 3", "step 3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %q, want %q", got, want)
	}
	// The loop's tick counter is published under its name.
	if n := reg.Counter("sky_test_ticks_total", "").Value(); n != 3 {
		t.Errorf("sky_test_ticks_total = %d, want 3", n)
	}
}

// TestStopTerminatesLoop is the termination property skyd's Close path
// depends on: once Stop is called, the tick stops rescheduling and the
// event queue drains, so Env.Run returns instead of spinning forever. A
// second Start must not arm a second loop.
func TestStopTerminatesLoop(t *testing.T) {
	env := sim.NewEnv(epoch)
	l := newLoop(t, env, func() {}, nil)
	l.Start()
	l.Start()
	env.Schedule(10*time.Minute+time.Second, l.Stop)
	done := make(chan error, 1)
	go func() { done <- env.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Env.Run did not return after Stop: the tick kept rescheduling")
	}
	if l.Running() {
		t.Fatal("Running() must report false after Stop")
	}
	if l.Ticks() != 10 {
		t.Fatalf("ticks = %d in 10 minutes, want 10", l.Ticks())
	}
}

// TestStopFromAnotherGoroutine exercises the cross-thread Stop skyd's Close
// performs while the simulation goroutine is mid-loop; run with -race.
func TestStopFromAnotherGoroutine(t *testing.T) {
	env := sim.NewEnv(epoch)
	var l *Loop[mode]
	l = newLoop(t, env, func() { l.Debit(env.Now(), 0.001) }, nil)
	l.Start()
	done := make(chan error, 1)
	go func() { done <- env.RunFor(10_000 * time.Hour) }()
	time.Sleep(2 * time.Millisecond) // let the loop take some ticks
	l.Stop()
	if err := <-done; err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if l.Running() {
		t.Fatal("Running() must report false after Stop")
	}
}

// TestSetModeAndRetune: a mode outside the loop's Modes and a budget with a
// negative rate or no cap are rejected, a retune is applied all or not at
// all, and Status shows what was applied.
func TestSetModeAndRetune(t *testing.T) {
	env := sim.NewEnv(epoch)
	l := newLoop(t, env, func() {}, nil)
	if err := l.SetMode("warmish"); !errors.Is(err, ErrUnknownMode) {
		t.Fatalf("SetMode(warmish) = %v, want ErrUnknownMode", err)
	}
	for _, c := range []struct {
		r    Retune
		want error
	}{
		{Retune{Mode: "warmish"}, ErrUnknownMode},
		{Retune{Budget: &BudgetRetune{RatePerHour: -1, CapUSD: 1}}, ErrBadBudget},
		{Retune{Budget: &BudgetRetune{RatePerHour: 2, CapUSD: 0}}, ErrBadBudget},
		{Retune{Mode: "on", Budget: &BudgetRetune{RatePerHour: 2, CapUSD: 0}}, ErrBadBudget},
	} {
		if err := l.Apply(c.r); !errors.Is(err, c.want) {
			t.Fatalf("Apply(%+v) = %v, want %v", c.r, err, c.want)
		}
	}
	if l.Mode() != "off" {
		t.Fatalf("mode = %s after rejected retunes, want off", l.Mode())
	}
	if err := l.Apply(Retune{Mode: "on", Budget: &BudgetRetune{RatePerHour: 2, CapUSD: 0.5}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	l.Debit(epoch, 0.25) // binary fractions, so the balance compares exactly
	want := Status[mode]{Mode: "on", BudgetBalance: 0.25, BudgetRate: 2, BudgetCap: 0.5, SpentUSD: 0.25}
	if st := l.Status(); st != want {
		t.Fatalf("status = %+v, want %+v", st, want)
	}
}
