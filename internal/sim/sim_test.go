package sim

import (
	"errors"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestScheduleOrdering(t *testing.T) {
	e := NewEnv(epoch)
	var order []int
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if got := e.Elapsed(); got != 3*time.Second {
		t.Fatalf("elapsed = %v", got)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEnv(epoch)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEnv(epoch)
	ran := false
	e.Schedule(-time.Hour, func() { ran = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || e.Elapsed() != 0 {
		t.Fatalf("ran=%v elapsed=%v", ran, e.Elapsed())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEnv(epoch)
	var woke time.Duration
	e.Go("sleeper", func(p *Proc) error {
		p.Sleep(5 * time.Second)
		woke = e.Elapsed()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*time.Second {
		t.Fatalf("woke at %v", woke)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", e.LiveProcs())
	}
}

func TestProcEventHandoff(t *testing.T) {
	e := NewEnv(epoch)
	ev := NewEvent(e)
	var got any
	e.Go("waiter", func(p *Proc) error {
		got = p.Wait(ev)
		return nil
	})
	e.Go("trigger", func(p *Proc) error {
		p.Sleep(3 * time.Second)
		ev.Trigger("payload")
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "payload" {
		t.Fatalf("got %v", got)
	}
}

func TestWaitOnTriggeredEventReturnsImmediately(t *testing.T) {
	e := NewEnv(epoch)
	ev := NewEvent(e)
	ev.Trigger(42)
	var at time.Duration
	e.Go("late", func(p *Proc) error {
		p.Sleep(time.Second)
		if v := p.Wait(ev); v != 42 {
			t.Errorf("value = %v", v)
		}
		at = e.Elapsed()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != time.Second {
		t.Fatalf("wait blocked: resumed at %v", at)
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	runOnce := func() []string {
		e := NewEnv(epoch)
		var log []string
		for i := 0; i < 50; i++ {
			name := string(rune('a' + i%26))
			d := time.Duration(i%7) * time.Second
			e.Go(name, func(p *Proc) error {
				p.Sleep(d)
				log = append(log, name)
				return nil
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := runOnce()
	for trial := 0; trial < 3; trial++ {
		if got := runOnce(); len(got) != len(first) {
			t.Fatal("nondeterministic length")
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("trial %d diverged at %d: %v vs %v", trial, i, got[i], first[i])
				}
			}
		}
	}
}

func TestProcDoneEvent(t *testing.T) {
	e := NewEnv(epoch)
	worker := e.Go("worker", func(p *Proc) error {
		p.Sleep(2 * time.Second)
		return nil
	})
	var joined time.Duration
	e.Go("parent", func(p *Proc) error {
		p.Wait(worker.Done())
		joined = e.Elapsed()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != 2*time.Second {
		t.Fatalf("joined at %v", joined)
	}
}

func TestShutdownAbortsBlockedProcs(t *testing.T) {
	e := NewEnv(epoch)
	never := NewEvent(e)
	p := e.Go("stuck", func(p *Proc) error {
		p.Wait(never)
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", e.LiveProcs())
	}
	if !errors.Is(p.Err(), ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", p.Err())
	}
}

func TestProcPanicFailsRun(t *testing.T) {
	e := NewEnv(epoch)
	e.Go("boom", func(p *Proc) error {
		panic("kaboom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil after process panic")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", e.LiveProcs())
	}
}

func TestFailStopsRun(t *testing.T) {
	e := NewEnv(epoch)
	sentinel := errors.New("sentinel")
	ran := false
	e.Schedule(time.Second, func() { e.Fail(sentinel) })
	e.Schedule(2*time.Second, func() { ran = true })
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("event after failure still ran")
	}
}

func TestRunFor(t *testing.T) {
	e := NewEnv(epoch)
	count := 0
	var tick func()
	tick = func() {
		count++
		e.Schedule(time.Minute, tick)
	}
	e.Schedule(time.Minute, tick)
	if err := e.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
	if e.Elapsed() != 10*time.Minute {
		t.Fatalf("elapsed = %v", e.Elapsed())
	}
	// Resume for another 5 minutes.
	if err := e.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 15 {
		t.Fatalf("after resume count = %d", count)
	}
}

func TestRunForLeavesBlockedProcsResumable(t *testing.T) {
	e := NewEnv(epoch)
	var woke time.Duration
	e.Go("sleeper", func(p *Proc) error {
		p.Sleep(10 * time.Second)
		woke = e.Elapsed()
		return nil
	})
	if err := e.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if woke != 0 {
		t.Fatal("woke early")
	}
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if woke != 10*time.Second {
		t.Fatalf("woke at %v", woke)
	}
}

func TestNowTracksEpoch(t *testing.T) {
	e := NewEnv(epoch)
	e.Schedule(90*time.Minute, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Now(), epoch.Add(90*time.Minute); !got.Equal(want) {
		t.Fatalf("Now = %v, want %v", got, want)
	}
}

func TestTriggerIdempotent(t *testing.T) {
	e := NewEnv(epoch)
	ev := NewEvent(e)
	ev.Trigger(1)
	ev.Trigger(2)
	if ev.Value() != 1 {
		t.Fatalf("value = %v, want first trigger to win", ev.Value())
	}
}

func TestRunPacedRejectsBadSpeedup(t *testing.T) {
	e := NewEnv(epoch)
	if err := e.RunPaced(0, nil, nil); err == nil {
		t.Fatal("RunPaced(0, nil, nil) accepted")
	}
}

func TestRunPacedExecutes(t *testing.T) {
	e := NewEnv(epoch)
	ran := false
	e.Schedule(time.Millisecond, func() { ran = true })
	if err := e.RunPaced(1e6, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("paced run skipped event")
	}
}

func TestNestedGoFromProc(t *testing.T) {
	e := NewEnv(epoch)
	var order []string
	e.Go("parent", func(p *Proc) error {
		child := e.Go("child", func(c *Proc) error {
			c.Sleep(time.Second)
			order = append(order, "child")
			return nil
		})
		p.Wait(child.Done())
		order = append(order, "parent")
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "child" || order[1] != "parent" {
		t.Fatalf("order = %v", order)
	}
}

// TestScheduleRunAllocs pins the kernel's innermost loop: once the queue has
// grown to its working size, scheduling a callback and firing it must not
// allocate (hotalloc proves it statically; this measures it). The delays
// descend, so every event starts a run of its own: emptied runs and their
// arrays must be reused.
func TestScheduleRunAllocs(t *testing.T) {
	e := NewEnv(epoch)
	noop := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 64; j++ {
			e.Schedule(time.Duration(64-j)*time.Microsecond, noop)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Schedule+run allocates %.2f times per 64 events, budget is 0", allocs)
	}
}
