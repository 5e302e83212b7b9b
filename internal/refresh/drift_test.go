package refresh

import (
	"testing"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cpu"
)

// storedChar puts a characterization with the given per-kind counts into a
// store at `taken`.
func storedChar(store *charact.Store, az string, taken time.Time, counts charact.Counts) {
	store.Put(charact.Characterization{
		AZ:      az,
		Taken:   taken,
		Polls:   5,
		Samples: counts.Total(),
		Counts:  counts,
		CostUSD: 0.01,
	})
}

// feed records n deduplicated passive observations of kind k at time t:
// instances numbered by kind, so feeds of different kinds into one zone
// name different instances.
func feed(p *charact.Passive, az string, t time.Time, k cpu.Kind, n int) {
	for i := 1; i <= n; i++ {
		p.Observe(az, t, int(k)*100_000+i, k)
	}
}

func TestDetectorNoStoredCharacterization(t *testing.T) {
	pass := charact.NewPassive(time.Hour)
	store := charact.NewStore(0)
	det := NewDetector(pass, store, 10)
	feed(pass, "az-a", epoch, cpu.Xeon25, 20)

	sc := det.Score("az-a", epoch)
	if sc.Confident {
		t.Fatal("no stored characterization must not yield a confident score")
	}
	if sc.Samples != 20 {
		t.Fatalf("Samples = %d, want 20 (live window reported even without a model)", sc.Samples)
	}
}

func TestDetectorBelowMinSamples(t *testing.T) {
	pass := charact.NewPassive(time.Hour)
	store := charact.NewStore(0)
	det := NewDetector(pass, store, 10)
	storedChar(store, "az-a", epoch, charact.Counts{cpu.Xeon25: 50})
	feed(pass, "az-a", epoch, cpu.EPYC, 9)

	if sc := det.Score("az-a", epoch); sc.Confident {
		t.Fatalf("9 samples under a floor of 10 must not be confident: %+v", sc)
	}
}

func TestDetectorAgreementScoresNearZero(t *testing.T) {
	pass := charact.NewPassive(time.Hour)
	store := charact.NewStore(0)
	det := NewDetector(pass, store, 10)
	// Stored: 80/20 Xeon25/Xeon30. Passive sees the same mix.
	storedChar(store, "az-a", epoch, charact.Counts{cpu.Xeon25: 80, cpu.Xeon30: 20})
	feed(pass, "az-a", epoch, cpu.Xeon25, 40)
	feed(pass, "az-a", epoch, cpu.Xeon30, 10)

	sc := det.Score("az-a", epoch)
	if !sc.Confident {
		t.Fatalf("expected confident score: %+v", sc)
	}
	if sc.TV > 0.001 || sc.Chi2 > 0.001 {
		t.Fatalf("identical mixes must score ~0 drift, got TV=%v chi2=%v", sc.TV, sc.Chi2)
	}
}

func TestDetectorDivergenceScoresHigh(t *testing.T) {
	pass := charact.NewPassive(time.Hour)
	store := charact.NewStore(0)
	det := NewDetector(pass, store, 10)
	// Model says all-Xeon30; traffic lands entirely on EPYC (a kind the
	// model has never seen — the floor-share path in chiSquare).
	storedChar(store, "az-a", epoch, charact.Counts{cpu.Xeon30: 100})
	feed(pass, "az-a", epoch, cpu.EPYC, 50)

	sc := det.Score("az-a", epoch)
	if !sc.Confident {
		t.Fatalf("expected confident score: %+v", sc)
	}
	if sc.TV < 0.99 {
		t.Fatalf("disjoint mixes must score TV~1, got %v", sc.TV)
	}
	if sc.Chi2 < 100 {
		t.Fatalf("disjoint mixes must score a large chi2, got %v", sc.Chi2)
	}
}

// A zone whose passive observations have all aged out of the window must
// lose confidence rather than keep reporting its last divergence (ISSUE 5
// satellite: passive-window expiry vs drift confidence).
func TestDetectorExpiredWindowLosesConfidence(t *testing.T) {
	pass := charact.NewPassive(30 * time.Minute)
	store := charact.NewStore(0)
	det := NewDetector(pass, store, 10)
	storedChar(store, "az-a", epoch, charact.Counts{cpu.Xeon30: 100})
	feed(pass, "az-a", epoch, cpu.EPYC, 50)

	if sc := det.Score("az-a", epoch.Add(time.Minute)); !sc.Confident || sc.TV < 0.99 {
		t.Fatalf("fresh observations must yield a confident drifted score: %+v", sc)
	}
	late := epoch.Add(31 * time.Minute)
	sc := det.Score("az-a", late)
	if sc.Confident {
		t.Fatalf("expired window must not be confident: %+v", sc)
	}
	if sc.Samples != 0 {
		t.Fatalf("expired window must report 0 live samples, got %d", sc.Samples)
	}
	if sc.TV != 0 || sc.Chi2 != 0 {
		t.Fatalf("unconfident scores must be zeroed, got TV=%v chi2=%v", sc.TV, sc.Chi2)
	}
}

func TestDetectorNilPassive(t *testing.T) {
	det := NewDetector(nil, charact.NewStore(0), 0)
	if det.MinSamples() != 25 {
		t.Fatalf("default MinSamples = %d, want 25", det.MinSamples())
	}
	if sc := det.Score("az-a", epoch); sc.Confident {
		t.Fatal("nil passive collector must never be confident")
	}
}

func TestChiSquareDeterministicOrder(t *testing.T) {
	obs := charact.Counts{cpu.Xeon25: 30, cpu.Xeon30: 30, cpu.EPYC: 40}
	exp := charact.Dist{cpu.Xeon25: 0.5, cpu.Xeon30: 0.3, cpu.EPYC: 0.2}
	a := chiSquare(obs, exp)
	for i := 0; i < 100; i++ {
		if b := chiSquare(obs, exp); b != a {
			t.Fatalf("chiSquare not deterministic: %v vs %v", a, b)
		}
	}
	if a <= 0 {
		t.Fatalf("diverged counts must yield positive chi2, got %v", a)
	}
}
