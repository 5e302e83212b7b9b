package charact

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"skyfaas/internal/cpu"
)

func TestCountsBasics(t *testing.T) {
	c := make(Counts)
	c.Add(cpu.Xeon25)
	c.Add(cpu.Xeon25)
	c.Add(cpu.Xeon30)
	if c.Total() != 3 {
		t.Fatalf("total = %d", c.Total())
	}
	d := c.Dist()
	if math.Abs(d[cpu.Xeon25]-2.0/3) > 1e-12 || math.Abs(d[cpu.Xeon30]-1.0/3) > 1e-12 {
		t.Fatalf("dist = %v", d)
	}
}

func TestCountsMergeClone(t *testing.T) {
	a := Counts{cpu.Xeon25: 2}
	b := Counts{cpu.Xeon25: 1, cpu.EPYC: 3}
	a.Merge(b)
	if a[cpu.Xeon25] != 3 || a[cpu.EPYC] != 3 {
		t.Fatalf("merge = %v", a)
	}
	if b[cpu.Xeon25] != 1 || b[cpu.EPYC] != 3 || len(b) != 2 {
		t.Fatalf("merge changed its source: %v", b)
	}
}

func TestEmptyCountsDist(t *testing.T) {
	if d := (Counts{}).Dist(); len(d) != 0 {
		t.Fatalf("empty counts dist = %v", d)
	}
}

func TestAPEKnownValues(t *testing.T) {
	tests := []struct {
		name     string
		est, ref Dist
		want     float64
	}{
		{"identical", Dist{cpu.Xeon25: 1}, Dist{cpu.Xeon25: 1}, 0},
		{"disjoint", Dist{cpu.Xeon25: 1}, Dist{cpu.Xeon30: 1}, 100},
		{"half", Dist{cpu.Xeon25: 0.5, cpu.Xeon30: 0.5}, Dist{cpu.Xeon25: 1}, 50},
		{"tenpoint", Dist{cpu.Xeon25: 0.6, cpu.Xeon30: 0.4}, Dist{cpu.Xeon25: 0.7, cpu.Xeon30: 0.3}, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := APE(tt.est, tt.ref); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("APE = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAPEProperties(t *testing.T) {
	mk := func(a, b, c float64) Dist {
		a, b, c = math.Abs(a), math.Abs(b), math.Abs(c)
		tot := a + b + c
		if tot == 0 {
			return Dist{cpu.Xeon25: 1}
		}
		return Dist{cpu.Xeon25: a / tot, cpu.Xeon29: b / tot, cpu.Xeon30: c / tot}
	}
	if err := quick.Check(func(a1, b1, c1, a2, b2, c2 float64) bool {
		for _, v := range []float64{a1, b1, c1, a2, b2, c2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		x, y := mk(a1, b1, c1), mk(a2, b2, c2)
		ape := APE(x, y)
		// Symmetric, bounded, zero iff equal-ish.
		return ape >= -1e-9 && ape <= 100+1e-9 && math.Abs(ape-APE(y, x)) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistTopAndString(t *testing.T) {
	// The most prevalent kind is not first in catalogue order, and a zero
	// share is left out.
	d := Dist{cpu.Xeon30: 0.6, cpu.Xeon25: 0.4, cpu.EPYC: 0}
	if s, want := d.String(), cpu.Xeon25.String()+":40.0% "+cpu.Xeon30.String()+":60.0%"; s != want {
		t.Fatalf("String = %q, want %q", s, want)
	}
	if s := (Dist{}).String(); s != "" {
		t.Fatalf("empty dist renders %q", s)
	}
}

func TestProgressiveAPEConverges(t *testing.T) {
	ref := Dist{cpu.Xeon25: 0.5, cpu.Xeon30: 0.5}
	perPoll := []Counts{
		{cpu.Xeon25: 10},               // all one kind: APE 50
		{cpu.Xeon30: 10},               // now balanced: APE 0
		{cpu.Xeon25: 5, cpu.Xeon30: 5}, // stays balanced
	}
	apes := ProgressiveAPE(perPoll, ref)
	if len(apes) != 3 {
		t.Fatalf("len = %d", len(apes))
	}
	if math.Abs(apes[0]-50) > 1e-9 || math.Abs(apes[1]) > 1e-9 || math.Abs(apes[2]) > 1e-9 {
		t.Fatalf("apes = %v", apes)
	}
}

func TestPollsToAccuracy(t *testing.T) {
	apes := []float64{30, 12, 4, 0.5}
	if got := PollsToAccuracy(apes, 95); got != 3 {
		t.Fatalf("polls to 95%% = %d, want 3", got)
	}
	if got := PollsToAccuracy(apes, 99); got != 4 {
		t.Fatalf("polls to 99%% = %d, want 4", got)
	}
	if got := PollsToAccuracy(apes, 99.9); got != -1 {
		t.Fatalf("unreachable target = %d, want -1", got)
	}
	if got := PollsToAccuracy(apes, 70); got != 1 {
		t.Fatalf("polls to 70%% = %d, want 1", got)
	}
}

func TestStabilitySeries(t *testing.T) {
	base := Dist{cpu.Xeon25: 1}
	series := StabilitySeries(base, []Dist{
		{cpu.Xeon25: 1},
		{cpu.Xeon25: 0.9, cpu.Xeon30: 0.1},
		{cpu.Xeon30: 1},
	})
	want := []float64{0, 10, 100}
	for i := range want {
		if math.Abs(series[i]-want[i]) > 1e-9 {
			t.Fatalf("series = %v", series)
		}
	}
}

func TestStoreTTL(t *testing.T) {
	now := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	s := NewStore(24 * time.Hour)
	ch := Characterization{
		AZ:      "us-west-1a",
		Taken:   now,
		Polls:   6,
		Samples: 5400,
		Counts:  Counts{cpu.Xeon25: 5400},
		CostUSD: 0.04,
	}
	s.Put(ch)
	if _, ok := s.Get("us-west-1a", now.Add(12*time.Hour)); !ok {
		t.Fatal("fresh characterization missing")
	}
	if _, ok := s.Get("us-west-1a", now.Add(25*time.Hour)); ok {
		t.Fatal("stale characterization returned")
	}
	if _, ok := s.Get("ghost", now); ok {
		t.Fatal("unknown zone returned")
	}
	if zones := s.Zones(); len(zones) != 1 || zones[0] != "us-west-1a" {
		t.Fatalf("zones = %v", zones)
	}
}

func TestStoreNoTTL(t *testing.T) {
	s := NewStore(0)
	now := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	s.Put(Characterization{AZ: "z", Taken: now})
	if _, ok := s.Get("z", now.AddDate(1, 0, 0)); !ok {
		t.Fatal("ttl=0 should never expire")
	}
}

func TestCharacterizationAge(t *testing.T) {
	now := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	ch := Characterization{Taken: now}
	if got := ch.Age(now.Add(3 * time.Hour)); got != 3*time.Hour {
		t.Fatalf("age = %v", got)
	}
}
