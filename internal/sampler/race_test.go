//go:build race

package sampler

// raceEnabled reports whether the race detector is built in; it makes
// sync.Pool drop a quarter of its puts, so allocation pins carry a budget
// for it.
const raceEnabled = true
