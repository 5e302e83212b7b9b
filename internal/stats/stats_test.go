package stats

import (
	"math"
	"testing"
	"testing/quick"
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
		scale := math.Max(1, math.Abs(Mean(xs)))
		return almost(r.Mean(), Mean(xs), 1e-6*scale)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunningDirect(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 {
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
	// A single sample is its own mean.
	var one Running
	one.Add(-3)
	if one.N() != 1 || one.Mean() != -3 {
		t.Fatalf("single sample: n %d, mean %v", one.N(), one.Mean())
	}
}
