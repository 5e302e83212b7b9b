// Package rng provides deterministic, splittable pseudo-random number
// streams for the simulation.
//
// Every stochastic component of the simulated sky (host provisioning, drift,
// contention noise, placement tie-breaking, ...) draws from its own named
// Stream derived from a single root seed. Because streams are derived by
// hashing stable names rather than by consuming numbers from a shared
// generator, adding a new consumer never perturbs the draws seen by existing
// consumers, and whole experiments replay bit-identically from one seed.
package rng

import (
	"hash/fnv"
	"math"
)

// Stream is a deterministic pseudo-random number generator. It implements a
// SplitMix64 core, which is statistically strong enough for simulation
// workloads and trivially seedable. The zero value is a valid stream seeded
// with zero, but callers normally construct streams with New or Split.
type Stream struct {
	state uint64
}

// New returns a Stream seeded from seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Split derives an independent child stream from s and a stable name.
// The child's sequence depends only on (seed of s's origin is irrelevant:
// the current state of s is NOT consumed) — it is a pure function of the
// parent's identity state and the name, so call order does not matter.
func (s *Stream) Split(name string) *Stream {
	h := fnv.New64a()
	var buf [8]byte
	putUint64(buf[:], s.state)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(name))
	return &Stream{state: h.Sum64()}
}

// SplitIndexed derives an independent child stream from s, a stable name,
// and an index. It is shorthand for Split(name + "/" + itoa(i)) without the
// string allocation churn in hot loops.
func (s *Stream) SplitIndexed(name string, i int) *Stream {
	h := fnv.New64a()
	var buf [8]byte
	putUint64(buf[:], s.state)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(name))
	putUint64(buf[:], uint64(i))
	_, _ = h.Write(buf[:])
	return &Stream{state: h.Sum64()}
}

func putUint64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// Uint64 returns the next 64 pseudo-random bits (SplitMix64 step).
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics; simulation code treats that as a programming error.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling is overkill here;
	// simple modulo bias is negligible for simulation-sized n (< 2^32).
	return int(s.Uint64() % uint64(n))
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, using the Box–Muller transform.
func (s *Stream) Norm(mean, stddev float64) float64 {
	// Guard against log(0).
	u1 := 1 - s.Float64()
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNorm returns a log-normally distributed value whose underlying normal
// has the given mu and sigma.
func (s *Stream) LogNorm(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// WeightedChoice returns an index in [0, len(weights)) drawn with probability
// proportional to weights[i]. All weights must be non-negative and at least
// one must be positive; otherwise it returns 0.
func (s *Stream) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	target := s.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Jitter returns v multiplied by a uniform factor in [1-amount, 1+amount].
func (s *Stream) Jitter(v, amount float64) float64 {
	return v * (1 + amount*(2*s.Float64()-1))
}
