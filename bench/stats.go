package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of measurements kept whole: percentiles are read off the
// exact sorted values, never off histogram buckets.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// pct returns the nearest-rank q-quantile (0 < q <= 1) of a sorted set; with
// fewer than 1/(1-q) samples that is the maximum. An empty set yields NaN so
// a missing measurement can never pass for a fast one.
func (s samples) pct(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func (s samples) max() float64 { return s.pct(1) }

// median of an unsorted set, interpolating between the middle pair.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := samples(v).sorted()
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns Q1 and Q3 by the exclusive method, the one Python's
// statistics.quantiles(v, n=4) uses, so spreads computed here match the
// ones the acceptance rule is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := samples(v).sorted()
	n := len(s)
	if n < 2 {
		return median(v), median(v)
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= n:
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
