package sim

import (
	"hash/fnv"
	"testing"
	"time"
)

// scriptedLoad schedules a fixed workload of callbacks and processes on env
// — irregular gaps, same-instant ties, events that schedule events — and
// returns counters the run fills in: how many events fired and an FNV
// checksum over (virtual time, event id) in firing order.
func scriptedLoad(env *Env) (fired *int, sum func() uint64) {
	h := fnv.New64a()
	n := 0
	note := func(id int) {
		n++
		var b [16]byte
		at := uint64(env.Elapsed())
		for i := 0; i < 8; i++ {
			b[i] = byte(at >> (8 * i))
			b[8+i] = byte(uint64(id) >> (8 * i))
		}
		h.Write(b[:])
	}
	// A multiplicative congruential sequence stands in for an rng stream:
	// the gaps only need to be irregular and the same on every run.
	x := uint64(12345)
	gap := func() time.Duration {
		x = x*6364136223846793005 + 1442695040888963407
		return time.Duration(x>>40) % (40 * time.Millisecond)
	}
	for i := 0; i < 300; i++ {
		id := i
		at := time.Duration(i)*50*time.Millisecond + gap()
		env.Schedule(at, func() {
			note(id)
			if id%3 == 0 {
				env.Schedule(gap(), func() { note(1000 + id) })
			}
			if id%7 == 0 {
				env.Schedule(0, func() { note(2000 + id) })
			}
		})
	}
	for i := 0; i < 20; i++ {
		id := i
		env.Go("walker", func(p *Proc) error {
			for step := 0; step < 10; step++ {
				p.Sleep(time.Duration(id+1) * 70 * time.Millisecond)
				note(3000 + id*10 + step)
			}
			return nil
		})
	}
	return &n, h.Sum64
}

// TestPacedMatchesUnpaced is pacing invariance: the wall clock decides when
// an event fires, never which event fires next.
func TestPacedMatchesUnpaced(t *testing.T) {
	run := func(drive func(*Env) error) (int, uint64, time.Duration) {
		t.Helper()
		env := NewEnv(epoch)
		fired, sum := scriptedLoad(env)
		if err := drive(env); err != nil {
			t.Fatal(err)
		}
		return *fired, sum(), env.Elapsed()
	}
	wantN, wantSum, wantEnd := run((*Env).Run)
	if wantN < 600 {
		t.Fatalf("scripted load fired only %d events", wantN)
	}
	for _, speedup := range []float64{1e3, 1e6} {
		n, sum, end := run(func(e *Env) error { return e.RunPaced(speedup, nil, nil) })
		if n != wantN || sum != wantSum || end != wantEnd {
			t.Errorf("RunPaced(%g): %d events, checksum %016x, ends at %v; Run: %d, %016x, %v",
				speedup, n, sum, end, wantN, wantSum, wantEnd)
		}
	}
}

// TestPacedByDeadlineNotGap is the reason the paced loop exists: 2,000
// events a tenth of a wall millisecond apart. A loop that sleeps once per
// gap pays the host's timer floor (about a millisecond) 2,000 times and
// takes over two seconds; pacing by deadline coalesces the short gaps and
// repays each wait's lateness, so the run takes its nominal 200 ms.
func TestPacedByDeadlineNotGap(t *testing.T) {
	const (
		events  = 2000
		gap     = 100 * time.Millisecond // virtual
		speedup = 1000
		nominal = events * gap / speedup // 200 ms of wall time
	)
	env := NewEnv(epoch)
	fired := 0
	for i := 1; i <= events; i++ {
		env.Schedule(time.Duration(i)*gap, func() { fired++ })
	}
	var reports int
	var lastEffective float64
	start := time.Now()
	err := env.RunPaced(speedup, nil, func(_ time.Duration, effective float64) {
		reports++
		lastEffective = effective
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if fired != events {
		t.Fatalf("fired %d of %d events", fired, events)
	}
	if wall > 3*nominal {
		t.Errorf("paced run took %v, want within 3x the nominal %v", wall, nominal)
	}
	if wall < nominal*9/10 {
		t.Errorf("paced run took %v, faster than the nominal %v: not paced", wall, nominal)
	}
	if reports == 0 || reports > events/2 {
		t.Errorf("%d reports over %d events: want one per wait, and waits coalesced", reports, events)
	}
	if lastEffective < speedup/2 || lastEffective > speedup*2 {
		t.Errorf("last reported effective speedup %.0f, configured %d", lastEffective, speedup)
	}
}

// TestPacedInjection sends commands into a loop that is waiting out an
// hour-long virtual gap: each must run promptly, at a virtual instant
// between the clock it found and the next event, and the clock must never
// move backwards.
func TestPacedInjection(t *testing.T) {
	const far = time.Hour
	env := NewEnv(epoch)
	farFired := false
	env.Schedule(far, func() { farFired = true })
	inject := make(chan func())
	done := make(chan error, 1)
	go func() { done <- env.RunPaced(1000, inject, nil) }()

	time.Sleep(5 * time.Millisecond) // let the loop reach its wait
	prev := time.Duration(-1)
	ran := make(chan time.Duration)
	for i := 0; i < 1000; i++ {
		sent := time.Now()
		inject <- func() { ran <- env.Elapsed() }
		at := <-ran
		if took := time.Since(sent); took > 50*time.Millisecond {
			t.Fatalf("injection %d ran after %v of wall time, want under 50ms", i, took)
		}
		if at < prev || at > far {
			t.Fatalf("injection %d ran at virtual %v, want within [%v, %v]", i, at, prev, far)
		}
		prev = at
	}
	if farFired {
		t.Fatal("the event an hour away fired within the test's wall time")
	}
	// The stamps come off the wall clock: 1,000 round trips take well over
	// a microsecond, which is a virtual millisecond at this speedup.
	if prev < time.Millisecond {
		t.Errorf("clock advanced only %v over 1,000 injections: commands were not stamped with wall-implied time", prev)
	}
	env.FinishFast()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !farFired {
		t.Error("FinishFast dropped the queued event")
	}
}

// TestPacedServesOnEmptyQueue is what keeps a server alive once its
// pre-scheduled timeline is spent: with a command channel, an empty queue
// blocks for commands instead of ending the run, and only FinishFast ends
// it.
func TestPacedServesOnEmptyQueue(t *testing.T) {
	env := NewEnv(epoch)
	inject := make(chan func())
	done := make(chan error, 1)
	go func() { done <- env.RunPaced(1000, inject, nil) }()

	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("paced run with a command channel returned on an empty queue (err %v)", err)
	default:
	}
	ran := make(chan time.Duration, 1)
	select {
	case inject <- func() {
		// The command's own follow-up event must run too.
		env.Schedule(time.Second, func() { ran <- env.Elapsed() })
	}:
	case <-time.After(5 * time.Second):
		t.Fatal("idle paced loop did not take a command")
	}
	select {
	case at := <-ran:
		// 20 ms idle at 1000x is 20 virtual seconds, plus the scheduled one.
		if at < 15*time.Second {
			t.Errorf("follow-up ran at virtual %v: the idle stretch was not counted", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("command's follow-up event never ran")
	}
	select {
	case err := <-done:
		t.Fatalf("paced run returned before FinishFast (err %v)", err)
	case <-time.After(10 * time.Millisecond):
	}
	env.FinishFast()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FinishFast did not end an idle paced run")
	}
}
