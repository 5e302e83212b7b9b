package cloudsim

import (
	"math"
	"testing"
	"testing/quick"

	"skyfaas/internal/cpu"
	"skyfaas/internal/rng"
)

// Property: billing is monotone in runtime and memory, and never below the
// per-request fee.
func TestCostProperties(t *testing.T) {
	p := defaultPrices()[AWS]
	if err := quick.Check(func(memRaw uint16, msA, msB float64) bool {
		mem := int(memRaw%10240) + 128
		a := math.Abs(math.Mod(msA, 1e6))
		b := math.Abs(math.Mod(msB, 1e6))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		costLo, costHi := p.Cost(mem, lo), p.Cost(mem, hi)
		if costLo > costHi {
			return false // monotone in runtime
		}
		if p.Cost(mem, hi) > p.Cost(mem*2, hi) {
			return false // monotone in memory
		}
		return costLo >= p.PerRequest
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: billing granularity only ever rounds up, by less than one unit.
func TestCostGranularityProperty(t *testing.T) {
	p := PriceModel{PerGBSecond: 0.0000166667, GranularityMS: 100}
	exact := PriceModel{PerGBSecond: 0.0000166667}
	if err := quick.Check(func(msRaw float64) bool {
		ms := math.Abs(math.Mod(msRaw, 1e6))
		if math.IsNaN(ms) {
			return true
		}
		rounded := p.Cost(1024, ms)
		raw := exact.Cost(1024, ms)
		oneUnit := exact.Cost(1024, p.GranularityMS)
		return rounded >= raw-1e-15 && rounded <= raw+oneUnit
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: normalizeMix always yields a distribution (sums to 1, no
// negatives) or an empty map, and preserves share ratios.
func TestNormalizeMixProperties(t *testing.T) {
	kinds := cpu.Kinds()
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		s := rng.New(seed)
		n := int(nRaw%uint8(len(kinds))) + 1
		mix := make(map[cpu.Kind]float64, n)
		for i := 0; i < n; i++ {
			// Include occasional zero/negative entries, which must drop.
			v := s.Float64()*10 - 1
			mix[kinds[i]] = v
		}
		out := normalizeMix(mix)
		var sum float64
		for k, v := range out {
			if v <= 0 {
				return false
			}
			if mix[k] <= 0 {
				return false // non-positive input survived
			}
			sum += v
		}
		if len(out) == 0 {
			// Legal only when no input share was positive.
			for _, v := range mix {
				if v > 0 {
					return false
				}
			}
			return true
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Ratio preservation between any two surviving kinds.
		var prev cpu.Kind
		for k := range out {
			if prev != 0 {
				want := mix[k] / mix[prev]
				got := out[k] / out[prev]
				if math.Abs(want-got) > 1e-6*math.Max(1, math.Abs(want)) {
					return false
				}
			}
			prev = k
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a kindDrawer only ever returns kinds with positive share.
func TestDrawKindProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, aw, bw uint8) bool {
		az := &AZ{rand: rng.New(seed)}
		mix := map[cpu.Kind]float64{
			cpu.Xeon25: float64(aw),
			cpu.Xeon30: float64(bw),
			cpu.EPYC:   0, // never drawable
		}
		draw := az.kindDrawer(normalizeMix(mix))
		for i := 0; i < 50; i++ {
			k := draw()
			if k == cpu.EPYC {
				return false
			}
			if aw == 0 && bw != 0 && k != cpu.Xeon30 {
				return false
			}
			if bw == 0 && aw != 0 && k != cpu.Xeon25 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: initMemoryFactor is bounded and monotone non-increasing in
// memory.
func TestInitMemoryFactorProperty(t *testing.T) {
	if err := quick.Check(func(a, b uint16) bool {
		memA := int(a%20480) + 64
		memB := int(b%20480) + 64
		fa, fb := initMemoryFactor(memA), initMemoryFactor(memB)
		if fa < 0.7 || fa > 2.5 {
			return false
		}
		if memA <= memB && fa < fb {
			return false // more memory must never slow init
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
