package sim

import (
	"errors"
	"testing"
	"time"
)

func TestScheduleFromWithinEvent(t *testing.T) {
	e := NewEnv(epoch)
	var order []string
	e.Schedule(time.Second, func() {
		order = append(order, "outer")
		// Zero-delay schedule from inside an event runs at the same
		// instant, after already-queued events for that instant.
		e.Schedule(0, func() { order = append(order, "inner") })
	})
	e.Schedule(time.Second, func() { order = append(order, "peer") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"outer", "peer", "inner"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunForBoundaryEventRuns(t *testing.T) {
	e := NewEnv(epoch)
	ran := false
	e.Schedule(time.Minute, func() { ran = true })
	// An event exactly at the horizon executes (next.at > until is the
	// stop condition).
	if err := e.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("boundary event skipped")
	}
}

func TestRunReentryRejected(t *testing.T) {
	e := NewEnv(epoch)
	var reentryErr error
	e.Schedule(time.Second, func() {
		reentryErr = e.Run()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reentryErr == nil {
		t.Fatal("nested Run accepted")
	}
}

func TestProcErrPropagation(t *testing.T) {
	e := NewEnv(epoch)
	sentinel := errors.New("worker failed")
	p := e.Go("worker", func(p *Proc) error {
		p.Sleep(time.Second)
		return sentinel
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(p.Err(), sentinel) {
		t.Fatalf("proc err = %v", p.Err())
	}
	if p.Name() != "worker" {
		t.Fatalf("name = %q", p.Name())
	}
	if p.Env() != e {
		t.Fatal("Env accessor broken")
	}
}

func TestEventValueBeforeTrigger(t *testing.T) {
	e := NewEnv(epoch)
	ev := NewEvent(e)
	if ev.triggered || ev.Value() != nil {
		t.Fatal("untriggered event has state")
	}
	ev.Trigger("x")
	if !ev.triggered || ev.Value() != "x" {
		t.Fatal("trigger state wrong")
	}
}

func TestManyWaitersWakeInOrder(t *testing.T) {
	e := NewEnv(epoch)
	ev := NewEvent(e)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go("w", func(p *Proc) error {
			p.Wait(ev)
			order = append(order, i)
			return nil
		})
	}
	e.Schedule(time.Second, func() { ev.Trigger(nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("only %d waiters woke", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order = %v (want registration order)", order)
		}
	}
}

func TestNegativeSleepClamped(t *testing.T) {
	e := NewEnv(epoch)
	e.Go("p", func(p *Proc) error {
		p.Sleep(-time.Hour)
		if e.Elapsed() != 0 {
			t.Errorf("negative sleep advanced time to %v", e.Elapsed())
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailDuringProcRun(t *testing.T) {
	e := NewEnv(epoch)
	sentinel := errors.New("abort")
	e.Go("p", func(p *Proc) error {
		p.Sleep(time.Second)
		e.Fail(sentinel)
		p.Sleep(time.Hour) // never completes: the run aborts
		return nil
	})
	err := e.Run()
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs after failure", e.LiveProcs())
	}
}
