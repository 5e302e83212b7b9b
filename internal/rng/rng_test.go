package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws", same)
	}
}

func TestSplitIsOrderIndependent(t *testing.T) {
	root := New(7)
	c1 := root.Split("alpha")
	c2 := root.Split("beta")
	// Splitting again in a different order must yield identical children.
	root2 := New(7)
	d2 := root2.Split("beta")
	d1 := root2.Split("alpha")
	if c1.Uint64() != d1.Uint64() {
		t.Error("alpha child depends on split order")
	}
	if c2.Uint64() != d2.Uint64() {
		t.Error("beta child depends on split order")
	}
}

func TestSplitChildrenIndependent(t *testing.T) {
	root := New(7)
	a := root.Split("a")
	b := root.Split("b")
	if a.Uint64() == b.Uint64() {
		t.Fatal("children with different names produced identical first draw")
	}
}

func TestSplitIndexedMatchesDistinctIndices(t *testing.T) {
	root := New(99)
	seen := make(map[uint64]int)
	for i := 0; i < 100; i++ {
		v := root.SplitIndexed("host", i).Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("index %d collides with %d", i, prev)
		}
		seen[v] = i
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 7, 100} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Norm mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("Norm stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestWeightedChoiceRespectsZeros(t *testing.T) {
	s := New(31)
	weights := []float64{0, 1, 0, 3}
	counts := make([]int, len(weights))
	const n = 40000
	for i := 0; i < n; i++ {
		counts[s.WeightedChoice(weights)]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight entries chosen: %v", counts)
	}
	ratio := float64(counts[3]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoiceDegenerate(t *testing.T) {
	s := New(1)
	if got := s.WeightedChoice([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero weights: got %d, want 0", got)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate %v", p)
	}
}

func TestJitterBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		v := s.Jitter(100, 0.1)
		return v >= 90 && v <= 110
	}, nil); err != nil {
		t.Fatal(err)
	}
}
