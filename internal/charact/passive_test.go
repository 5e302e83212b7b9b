package charact

import (
	"math"
	"testing"
	"time"

	"skyfaas/internal/cpu"
)

var passiveEpoch = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

func TestPassiveDefaultWindow(t *testing.T) {
	if got := NewPassive(0).Window(); got != 24*time.Hour {
		t.Fatalf("default window = %v", got)
	}
}

func TestPassiveCharacterizationFromTraffic(t *testing.T) {
	p := NewPassive(time.Hour)
	// 60 instances: 40 on 2.5GHz, 20 on 3.0GHz.
	for i := 0; i < 60; i++ {
		kind := cpu.Xeon25
		if i%3 == 2 {
			kind = cpu.Xeon30
		}
		p.Observe("z", passiveEpoch.Add(time.Duration(i)*time.Second), i+1, kind)
	}
	now := passiveEpoch.Add(2 * time.Minute)
	if got := p.Samples("z", now); got != 60 {
		t.Fatalf("samples = %d", got)
	}
	ch, ok := p.Characterization("z", now, 50)
	if !ok {
		t.Fatal("characterization unavailable")
	}
	if ch.CostUSD != 0 {
		t.Errorf("passive characterization cost = %v, want free", ch.CostUSD)
	}
	if ch.Samples != 60 {
		t.Errorf("samples = %d", ch.Samples)
	}
	d := ch.Dist()
	if math.Abs(d[cpu.Xeon25]-2.0/3) > 1e-9 || math.Abs(d[cpu.Xeon30]-1.0/3) > 1e-9 {
		t.Errorf("dist = %v", d)
	}
}

func TestPassiveDeduplicatesLiveInstances(t *testing.T) {
	p := NewPassive(time.Hour)
	for i := 0; i < 10; i++ {
		p.Observe("z", passiveEpoch.Add(time.Duration(i)*time.Second), 7, cpu.Xeon25)
	}
	if got := p.Samples("z", passiveEpoch.Add(time.Minute)); got != 1 {
		t.Fatalf("samples = %d, want 1 (deduplicated)", got)
	}
	// The same number in another zone is another instance.
	p.Observe("y", passiveEpoch, 7, cpu.Xeon25)
	if got := p.Samples("y", passiveEpoch.Add(time.Minute)); got != 1 {
		t.Fatalf("zone y samples = %d, want 1", got)
	}
}

func TestPassiveWindowExpiry(t *testing.T) {
	p := NewPassive(time.Hour)
	p.Observe("z", passiveEpoch, 1, cpu.EPYC)
	p.Observe("z", passiveEpoch.Add(90*time.Minute), 2, cpu.Xeon30)
	now := passiveEpoch.Add(91 * time.Minute)
	if got := p.Samples("z", now); got != 1 {
		t.Fatalf("samples = %d, want 1 (old expired)", got)
	}
	ch, ok := p.Characterization("z", now, 1)
	if !ok {
		t.Fatal("characterization unavailable")
	}
	if ch.Dist()[cpu.EPYC] != 0 {
		t.Error("expired observation still counted")
	}
	// After expiry the same instance may be observed again.
	p.Observe("z", now, 1, cpu.EPYC)
	if got := p.Samples("z", now); got != 2 {
		t.Fatalf("samples after re-observation = %d", got)
	}
}

func TestPassiveMinSamplesGate(t *testing.T) {
	p := NewPassive(time.Hour)
	p.Observe("z", passiveEpoch, 1, cpu.Xeon25)
	if _, ok := p.Characterization("z", passiveEpoch.Add(time.Second), 100); ok {
		t.Fatal("characterization with too few samples")
	}
	if _, ok := p.Characterization("ghost", passiveEpoch, 1); ok {
		t.Fatal("characterization of unobserved zone")
	}
	if got := p.Samples("ghost", passiveEpoch); got != 0 {
		t.Fatalf("ghost samples = %d", got)
	}
}
