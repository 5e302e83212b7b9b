package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almost(got, tt.want, 1e-12) {
				t.Fatalf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{5}); got != 0 {
		t.Fatalf("StdDev single = %v", got)
	}
	// Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); !almost(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty min/max not 0")
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		var r Running
		for _, x := range xs {
			r.Add(x)
		}
		if r.N() != len(xs) {
			return false
		}
		if len(xs) == 0 {
			return r.Mean() == 0 && r.StdDev() == 0
		}
		scale := math.Max(1, math.Abs(Mean(xs)))
		return almost(r.Mean(), Mean(xs), 1e-6*scale) &&
			almost(r.StdDev(), StdDev(xs), 1e-6*scale) &&
			r.Min() == Min(xs) && r.Max() == Max(xs)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunningDirect(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.StdDev() != 0 || r.Min() != 0 || r.Max() != 0 {
		t.Fatal("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("n = %d", r.N())
	}
	if !almost(r.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", r.Mean())
	}
	if !almost(r.StdDev(), 2, 1e-12) {
		t.Fatalf("stddev = %v", r.StdDev())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
	// Single sample: stddev stays 0, min == max.
	var one Running
	one.Add(-3)
	if one.StdDev() != 0 || one.Min() != -3 || one.Max() != -3 {
		t.Fatalf("single sample: %v %v %v", one.StdDev(), one.Min(), one.Max())
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if _, ok := s.Last(); ok {
		t.Fatal("Last on empty series reported ok")
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		s.Add(base.Add(time.Duration(i)*time.Hour), float64(i*i))
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	vals := s.Values()
	if len(vals) != 5 || vals[3] != 9 {
		t.Fatalf("Values = %v", vals)
	}
	last, ok := s.Last()
	if !ok || last.V != 16 || !last.T.Equal(base.Add(4*time.Hour)) {
		t.Fatalf("Last = %+v ok=%v", last, ok)
	}
}
