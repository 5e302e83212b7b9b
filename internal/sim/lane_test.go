package sim

import (
	"testing"
	"time"
)

// firing is one entry of a run's log: when an event ran and which one.
type firing struct {
	at time.Duration
	id int
}

// laneScript builds a seeded model on e in which every event logs itself
// and then, from a private sequence, arms up to three more: on one of two
// lanes, or by Schedule with a delay of 0..8 units, so that plain events
// tie exactly with lane deadlines (0, one lane's delay, the other's) and
// with each other. With useLane false every lane timer is armed as the
// Schedule(delay, fn) it stands for — the reference the lane must match.
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
	var lanes [2]*Lane[int]
	for i := range lanes {
		lanes[i] = NewLane(e, delays[i], func(id int) { fire(id) })
	}
	spawn := func() {
		for k := draw(4); k > 0 && budget > 0; k-- {
			budget--
			next++
			id := next
			switch c := draw(5); {
			case c < 2 && useLane:
				lanes[c].Push(id)
			case c < 2:
				e.Schedule(delays[c], func() { fire(id) })
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

// TestLaneMatchesSchedule: a lane fires every timer at the virtual time and
// in the position among same-instant events that Schedule(delay) would have
// given it, so the firing log and the event count of a seeded script are
// those of the same script with every Push replaced by Schedule — under
// Run, under RunFor in slices whose horizons land on event times, and
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
	l := NewLane(e, time.Minute, func(int) { fired++ })
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
// not allocate (hotalloc proves it statically; this measures it).
func TestLaneAllocs(t *testing.T) {
	e := NewEnv(epoch)
	l := NewLane(e, time.Second, func(int) {})
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
}
