// Package experiments is a skylint fixture: the maporder rule forbids
// map-iteration order and select case order from reaching sim-visible
// state (scheduling, traces, checksums) without an intervening sort.
package experiments

import (
	"sort"

	"example.com/skylintfix/internal/sim"
)

// Direct schedules straight out of a map range: event order inherits the
// randomized iteration order.
func Direct(delays map[string]int) {
	for name, d := range delays {
		_ = name
		sim.Schedule(d, func() {}) //want maporder
	}
}

// Leaked collects keys in iteration order and emits them without
// sorting: the taint pass follows keys out of the loop to the sink.
func Leaked(delays map[string]int) {
	var keys []string
	for k := range delays {
		keys = append(keys, k)
	}
	sim.Send(keys) //want maporder
}

// Sorted is the blessed idiom — collect, sort, then emit — and must stay
// clean.
func Sorted(delays map[string]int) {
	var keys []string
	for k := range delays {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sim.Send(keys)
}

// Race triggers an event from whichever select case wins the ready race.
func Race(a, b chan string) {
	for i := 0; i < 2; i++ {
		select {
		case v := <-a:
			sim.Trigger(v) //want maporder
		case v := <-b:
			sim.Trigger(v) //want maporder
		}
	}
}

// PerElement collects keys in iteration order and emits them one at a
// time: the range over the unsorted slice hands its variable the map's
// order, so the sink inside that loop is flagged.
func PerElement(delays map[string]int) {
	var keys []string
	for k := range delays {
		keys = append(keys, k)
	}
	for _, k := range keys {
		sim.Trigger(k) //want maporder
	}
}

// PerElementSorted sorts before the per-element loop and must stay clean.
func PerElementSorted(delays map[string]int) {
	var keys []string
	for k := range delays {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sim.Trigger(k)
	}
}
