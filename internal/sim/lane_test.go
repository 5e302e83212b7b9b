package sim

import (
	"testing"
	"time"
)

// never is the staleness predicate of a lane whose timers all stay live.
func never(int, uint64) bool { return false }

// firing is one entry of a run's log: when an event ran and which one.
type firing struct {
	at time.Duration
	id int
}

// laneScript builds a seeded model on e in which every event logs itself
// and then, from a private sequence, arms up to three more: on one of two
// lanes, or by Schedule with a delay of 0..8 units, so that plain events
// tie exactly with lane deadlines (0, one lane's delay, the other's) and
// with each other; now and then it voids a lane timer armed earlier, for
// good, as a reuse voids a keep-alive. With useLane false every lane timer
// is armed as the Schedule(delay, fn) it stands for, which fires a voided
// timer as a no-op — the reference the lane must match.
func laneScript(e *Env, seed uint64, useLane bool) *[]firing {
	const unit = time.Millisecond
	delays := [2]time.Duration{4 * unit, 8 * unit}
	x := seed*2654435761 + 1
	draw := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int(x>>33) % n
	}
	log := new([]firing)
	budget, next := 4000, 0
	var fire func(id int)
	void := make(map[int]bool)
	var armed []int // lane timers, voided ones included
	stale := func(id int, _ uint64) bool { return void[id] }
	var lanes [2]*Lane[int]
	for i := range lanes {
		lanes[i] = NewLane(e, delays[i], func(id int) { fire(id) }, stale)
	}
	spawn := func() {
		if len(armed) > 0 && draw(3) == 0 {
			void[armed[draw(len(armed))]] = true
		}
		for k := draw(4); k > 0 && budget > 0; k-- {
			budget--
			next++
			id := next
			switch c := draw(5); {
			case c < 2 && useLane:
				armed = append(armed, id)
				lanes[c].Push(id)
			case c < 2:
				armed = append(armed, id)
				e.Schedule(delays[c], func() {
					if !void[id] {
						fire(id)
					}
				})
			default:
				e.Schedule(time.Duration(draw(9))*unit, func() { fire(id) })
			}
		}
	}
	fire = func(id int) {
		*log = append(*log, firing{at: e.Elapsed(), id: id})
		spawn()
	}
	for i := 0; i < 8; i++ {
		e.Schedule(time.Duration(i%3)*unit, spawn)
	}
	return log
}

// TestLaneMatchesSchedule: a lane fires every live timer at the virtual
// time and in the position among same-instant events that Schedule(delay)
// would have given it, and no voided one, so the firing log of a seeded
// script is that of the same script with every Push replaced by Schedule —
// under Run, under RunFor in slices whose horizons land on event times, and
// paced.
func TestLaneMatchesSchedule(t *testing.T) {
	modes := []struct {
		name string
		run  func(e *Env) error
	}{
		{"Run", (*Env).Run},
		{"RunFor", func(e *Env) error {
			for e.Pending() > 0 {
				if err := e.RunFor(5 * time.Millisecond / 2); err != nil {
					return err
				}
			}
			return nil
		}},
		{"RunPaced", func(e *Env) error { return e.RunPaced(1e6, nil, nil) }},
	}
	for _, m := range modes {
		for seed := uint64(1); seed <= 12; seed++ {
			var logs [2][]firing
			for i, useLane := range []bool{false, true} {
				e := NewEnv(epoch)
				log := laneScript(e, seed, useLane)
				if err := m.run(e); err != nil {
					t.Fatalf("%s seed %d lane=%v: %v", m.name, seed, useLane, err)
				}
				logs[i] = *log
			}
			want, got := logs[0], logs[1]
			if len(want) < 1000 {
				t.Fatalf("%s seed %d: the script fired only %d events", m.name, seed, len(want))
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d events with the lane, %d with Schedule", m.name, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: event %d is %+v with the lane, %+v with Schedule", m.name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLaneHoldsOneQueueEntry: however many timers a lane holds, the event
// queue carries its head only, and it drains to empty.
func TestLaneHoldsOneQueueEntry(t *testing.T) {
	e := NewEnv(epoch)
	fired := 0
	l := NewLane(e, time.Minute, func(int) { fired++ }, never)
	for i := 0; i < 1000; i++ {
		l.Push(i)
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d with 1,000 lane timers armed, want 1", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1000 || e.Pending() != 0 || e.Elapsed() != time.Minute {
		t.Fatalf("fired %d, pending %d, clock %v", fired, e.Pending(), e.Elapsed())
	}
}

// TestLaneAllocs pins a warmed lane: pushing a timer and firing it must
// not allocate, nor must compacting a lane whose every push voids the
// last (the keep-alive pattern).
func TestLaneAllocs(t *testing.T) {
	e := NewEnv(epoch)
	l := NewLane(e, time.Second, func(int) {}, never)
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 64; j++ {
			l.Push(j)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Lane Push+fire allocates %.2f times per 64 timers, budget is 0", allocs)
	}
	gen := 0
	kept := NewLane(e, time.Second, func(int) {}, func(g int, _ uint64) bool { return g != gen })
	allocs = testing.AllocsPerRun(100, func() {
		for j := 0; j < 64; j++ {
			gen++
			kept.Push(gen)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Lane compaction allocates %.2f times per 64 voided timers, budget is 0", allocs)
	}
}

// TestLaneDropsStaleTimers: the keep-alive pattern, one instance reused
// over and over, voids each timer with the next push. The lane keeps the
// queued head and the live timer, not every timer armed, and fires only
// the live one.
func TestLaneDropsStaleTimers(t *testing.T) {
	e := NewEnv(epoch)
	gen := 0
	var fired []int
	l := NewLane(e, time.Minute, func(g int) { fired = append(fired, g) }, func(g int, _ uint64) bool { return g != gen })
	for i := 0; i < 10_000; i++ {
		gen++
		l.Push(gen)
	}
	if l.Len() > 2 || cap(l.q) > 4 {
		t.Fatalf("10,000 pushes, each voiding the last: lane holds %d timers in %d slots, want <= 2 in <= 4", l.Len(), cap(l.q))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != gen || l.Len() != 0 {
		t.Fatalf("fired %v, lane holds %d; want only the live timer %d", fired, l.Len(), gen)
	}
}

// TestLaneWorkIsLinear: 10^5 pushes cost O(n) lane work — timers examined
// by compaction or skipped by a fire, and timers moved — whatever share of
// them goes stale and whenever it does: voided as the next push arrives,
// or at random while they wait, with the lane firing in between.
func TestLaneWorkIsLinear(t *testing.T) {
	const n = 100_000
	for _, live := range []float64{0, 0.1, 0.49, 0.51, 0.9, 1} {
		for _, late := range []bool{false, true} {
			e := NewEnv(epoch)
			x := uint64(11)
			draw := func() float64 {
				x = x*6364136223846793005 + 1442695040888963407
				return float64(x>>11) / (1 << 53)
			}
			void := make([]bool, n)
			firedLive := 0
			l := NewLane(e, 50*time.Millisecond, func(id int) {
				if void[id] {
					t.Fatalf("live %.2f late %v: timer %d fired after it went stale", live, late, id)
				}
				firedLive++
			}, func(id int, _ uint64) bool { return void[id] })
			for id := 0; id < n; id++ {
				l.Push(id)
				switch {
				case draw() < live:
				case !late:
					void[id] = true
				default:
					// Void a timer still waiting, or this one.
					void[max(id-int(draw()*50), 0)], void[id] = true, true
				}
				if id%100 == 99 {
					if err := e.RunFor(time.Millisecond); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			alive := 0
			for _, v := range void {
				if !v {
					alive++
				}
			}
			if firedLive != alive {
				t.Fatalf("fired %d live timers, want %d", firedLive, alive)
			}
			t.Logf("live %.2f late %v: %d fired, %d steps (%.2f n)", live, late, alive, l.work, float64(l.work)/n)
			if l.work > 4*n {
				t.Errorf("%d pushes, %d live: %d lane steps, want <= 4n", n, alive, l.work)
			}
		}
	}
}
