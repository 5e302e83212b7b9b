package sim

import (
	"hash/fnv"
	"math"
	"net"
	"slices"
	"sort"
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
	var effectives []float64
	start := time.Now()
	err := env.RunPaced(speedup, nil, func(_ time.Duration, effective float64) {
		effectives = append(effectives, effective)
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
	reports := len(effectives)
	if reports == 0 || reports > events/2 {
		t.Fatalf("%d reports over %d events: want one per wait, and waits coalesced", reports, events)
	}
	// Each report covers one wait of a fraction of a millisecond, so one
	// late wake-up on a loaded host skews it severalfold; the median
	// report is the loop's effective speedup.
	sort.Float64s(effectives)
	if median := effectives[reports/2]; median < speedup/2 || median > speedup*2 {
		t.Errorf("median reported effective speedup %.0f, configured %d", median, speedup)
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

// pacedGaps returns n irregular wall-time gaps in [lo, hi), the same on
// every run.
func pacedGaps(n int, lo, hi time.Duration) []time.Duration {
	x := uint64(987654321)
	gaps := make([]time.Duration, n)
	for i := range gaps {
		x = x*6364136223846793005 + 1442695040888963407
		gaps[i] = lo + time.Duration(x>>33)%(hi-lo)
	}
	return gaps
}

// TestPacedWaitLateness holds the paced loop to its deadlines. Once a
// process has a network descriptor open (as a server does), the Go runtime
// parks its timers in the network poller, whose timeout on Linux is whole
// milliseconds, so a timer wait that is not a whole number of milliseconds
// wakes up to a millisecond late. Events with irregular gaps of 0.3–3 wall
// ms must fire within 0.3 ms of their deadlines at the median, counted
// beyond a control: the napper alone, woken at the same deadlines in the
// same run. A busy host delays both alike, so the bound holds the loop to
// what the host can do right now, not to an absolute time.
func TestPacedWaitLateness(t *testing.T) {
	// Without a descriptor in the poller the runtime sleeps on a futex with
	// nanosecond timeouts, and the millisecond rounding does not show.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	defer ln.Close()

	// The two take turns in rounds, so a burst of load on the host falls
	// on both.
	const rounds, events = 6, 50
	gaps := pacedGaps(rounds*events, 300*time.Microsecond, 3*time.Millisecond)
	naps := startNapper()
	defer naps.stop()
	var paced, control []time.Duration
	for r := range rounds {
		round := gaps[r*events : (r+1)*events]
		if r%2 == 0 {
			paced = append(paced, pacedLateness(t, round)...)
			control = append(control, napLateness(naps, round)...)
		} else {
			control = append(control, napLateness(naps, round)...)
			paced = append(paced, pacedLateness(t, round)...)
		}
	}
	slices.Sort(paced)
	slices.Sort(control)
	n := len(paced)
	median, p90, ctl := paced[n/2], paced[n*9/10], control[n/2]
	t.Logf("wall lateness against the deadline: median %v, p90 %v; the napper alone: median %v", median, p90, ctl)
	if median-ctl > 300*time.Microsecond {
		t.Errorf("median wall lateness %v, %v beyond the napper's own, want under 300µs: waits wake on a coarser tick than their deadlines", median, median-ctl)
	}
}

// pacedLateness runs one event per gap through RunPaced at speedup 1000
// and returns how late each fired against its wall-clock deadline.
func pacedLateness(t *testing.T, gaps []time.Duration) []time.Duration {
	t.Helper()
	const speedup = 1000
	env := NewEnv(epoch)
	lateness := make([]time.Duration, 0, len(gaps))
	var start time.Time
	at := time.Duration(0)
	for _, gap := range gaps {
		at += gap * speedup
		due := at / speedup
		env.Schedule(at, func() { lateness = append(lateness, time.Since(start)-due) })
	}
	start = time.Now()
	if err := env.RunPaced(speedup, nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(lateness) != len(gaps) {
		t.Fatalf("fired %d of %d events", len(lateness), len(gaps))
	}
	return lateness
}

// napLateness waits out the same deadlines on the napper alone and returns
// how late each ring came.
func napLateness(naps *napper, gaps []time.Duration) []time.Duration {
	lateness := make([]time.Duration, 0, len(gaps))
	start := time.Now()
	at := time.Duration(0)
	for _, gap := range gaps {
		at += gap
		naps.until(start.Add(at))
		<-naps.ring
		lateness = append(lateness, time.Since(start)-at)
	}
	return lateness
}

// TestPacedNapTakesCommands: the end of every wait is napped out, and a
// command or FinishFast that arrives then must not wait for the nap in
// progress. Events 0.8 wall ms apart keep every wait inside the napped
// tail while 1,000 commands are sent at irregular pauses; each must start
// within half a millisecond of its send at the 99th percentile, as every
// read of a live server crosses this loop. (A loop that naps on its own
// goroutine and looks for commands between naps fails this on a host that
// sometimes wakes a sleeping thread milliseconds late.)
func TestPacedNapTakesCommands(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	defer ln.Close()

	const (
		speedup  = 1000
		gap      = 800 * time.Millisecond // virtual: 0.8 wall ms
		commands = 1000
	)
	env := NewEnv(epoch)
	// The ticks outlast the commands: the last command sets how many more
	// there are, so FinishFast has few left to drain.
	ticks, limit := 0, math.MaxInt
	var tick func()
	tick = func() {
		if ticks++; ticks < limit {
			env.Schedule(gap, tick)
		}
	}
	env.Schedule(gap, tick)
	inject := make(chan func())
	done := make(chan error, 1)
	go func() { done <- env.RunPaced(speedup, inject, nil) }()

	// The sender sleeps between commands, so they land at every phase of
	// the loop's waits.
	pauses := pacedGaps(commands, 10*time.Microsecond, 800*time.Microsecond)
	delays := make([]time.Duration, commands)
	started := make(chan struct{})
	for i := range delays {
		time.Sleep(pauses[i])
		sent := time.Now()
		inject <- func() {
			delays[i] = time.Since(sent)
			started <- struct{}{}
		}
		<-started
	}
	slices.Sort(delays)
	p50, p99 := delays[commands/2], delays[commands*99/100]
	t.Logf("send to start: p50 %v, p99 %v", p50, p99)
	if p99 > 500*time.Microsecond {
		t.Errorf("commands waited %v from send to start at the 99th percentile, want under 500µs", p99)
	}

	inject <- func() { limit = ticks + 50 }

	// Let the loop settle into a nap, then end the run from outside it.
	time.Sleep(2 * time.Millisecond)
	asked := time.Now()
	env.FinishFast()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("FinishFast did not end a napping paced run")
	}
	took := time.Since(asked)
	t.Logf("run ended %v after FinishFast", took)
	if took > 5*time.Millisecond {
		t.Errorf("run ended %v after FinishFast, want within 5ms", took)
	}
	if ticks != limit {
		t.Errorf("%d ticks fired, want all %d: FinishFast dropped events", ticks, limit)
	}
}

// TestPacedWaitAllocs pins the paced wait: the timer is made once per run
// and reused, and a nap allocates nothing, so a run's allocations do not
// grow with its waits. Gaps of 0.3–3 wall ms take both the timer and the
// napped tail.
func TestPacedWaitAllocs(t *testing.T) {
	const speedup = 1000
	env := NewEnv(epoch)
	noop := func() {}
	gaps := pacedGaps(40, 300*time.Microsecond, 3*time.Millisecond)
	waits := 0
	report := func(time.Duration, float64) { waits++ }
	run := func(events int) float64 {
		return testing.AllocsPerRun(5, func() {
			at := time.Duration(0)
			for _, gap := range gaps[:events] {
				at += gap * speedup
				env.Schedule(at, noop)
			}
			if err := env.RunPaced(speedup, nil, report); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := run(4), run(40)
	if waits < 6*(4+40)/2 {
		t.Fatalf("%d waits over 12 runs of 4 and of 40 events: the runs did not wait", waits)
	}
	t.Logf("allocations per run: %.0f with 4 events, %.0f with 40", few, many)
	if many > few {
		t.Errorf("a paced run of 40 waits allocates %.0f times, of 4 waits %.0f: a wait allocates", many, few)
	}
	if few > 7 {
		t.Errorf("a paced run allocates %.0f times, budget is 7 (its timer, and the napper with its goroutine and channels)", few)
	}
}
