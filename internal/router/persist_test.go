package router

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/workload"
)

func TestPerfModelSaveLoadRoundTrip(t *testing.T) {
	m := NewPerfModel()
	for i := 0; i < 100; i++ {
		m.Observe(workload.Zipper, cpu.Xeon25, 4000+float64(i))
		m.Observe(workload.Zipper, cpu.Xeon30, 3400+float64(i))
	}
	m.Observe(workload.LogisticRegression, cpu.EPYC, 9800)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"zipper"`) {
		t.Errorf("serialized form lacks workload names:\n%s", buf.String())
	}
	back, err := LoadPerfModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []cpu.Kind{cpu.Xeon25, cpu.Xeon30} {
		origMean, _ := m.Mean(workload.Zipper, k)
		gotMean, ok := back.Mean(workload.Zipper, k)
		if !ok {
			t.Fatalf("%v missing after load", k)
		}
		if math.Abs(gotMean-origMean) > 1e-6 {
			t.Errorf("%v mean %v vs %v", k, gotMean, origMean)
		}
		if back.Samples(workload.Zipper, k) != 100 {
			t.Errorf("%v samples = %d", k, back.Samples(workload.Zipper, k))
		}
	}
	// Ranking survives.
	kinds := back.Kinds(workload.Zipper)
	if len(kinds) != 2 || kinds[0] != cpu.Xeon30 {
		t.Errorf("ranking after load = %v", kinds)
	}
	if _, ok := back.Mean(workload.LogisticRegression, cpu.EPYC); !ok {
		t.Error("second workload missing")
	}
}

func TestLoadPerfModelRejectsGarbage(t *testing.T) {
	if _, err := LoadPerfModel(strings.NewReader("]")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := LoadPerfModel(strings.NewReader(
		`{"workloads":[{"workload":"quantum_sort","kinds":[]}]}`)); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := LoadPerfModel(strings.NewReader(
		`{"workloads":[{"workload":"zipper","kinds":[{"cpuModel":"Mystery","n":1,"meanMS":5}]}]}`)); err == nil {
		t.Fatal("unknown CPU model accepted")
	}
}

func TestLoadPerfModelSkipsEmptyEntries(t *testing.T) {
	back, err := LoadPerfModel(strings.NewReader(
		`{"workloads":[{"workload":"zipper","kinds":[{"cpuModel":"AMD EPYC","n":0,"meanMS":5}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Mean(workload.Zipper, cpu.EPYC); ok {
		t.Fatal("zero-sample entry loaded")
	}
}

// TestLoadPerfModelHugeCount: a saved count is restored in O(1), so a file
// claiming 10^15 samples loads at once, exactly, instead of replaying its
// mean 10^15 times.
func TestLoadPerfModelHugeCount(t *testing.T) {
	const n = 1_000_000_000_000_000
	in := `{"workloads":[{"workload":"zipper","kinds":[{"cpuModel":"AMD EPYC","n":1000000000000000,"meanMS":4321.5}]}]}`
	type loaded struct {
		m   *PerfModel
		err error
	}
	ch := make(chan loaded, 1)
	go func() {
		m, err := LoadPerfModel(strings.NewReader(in))
		ch <- loaded{m, err}
	}()
	select {
	case got := <-ch:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if s := got.m.Samples(workload.Zipper, cpu.EPYC); s != n {
			t.Errorf("samples = %d, want %d", s, n)
		}
		if mean, _ := got.m.Mean(workload.Zipper, cpu.EPYC); mean != 4321.5 {
			t.Errorf("mean = %v, want 4321.5", mean)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LoadPerfModel did not return within 5 s for a count of 10^15")
	}
}
