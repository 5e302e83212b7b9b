package cpu

import "testing"

func TestMaskBasics(t *testing.T) {
	m := Mask(0).Add(Xeon30).Add(EPYC)
	if !m.Has(Xeon30) || !m.Has(EPYC) || m.Has(Xeon25) {
		t.Errorf("membership wrong: %b", m)
	}
	// Adding twice is idempotent.
	if m.Add(EPYC) != m {
		t.Error("double add changed mask")
	}
}

func TestMaskCoversCatalog(t *testing.T) {
	// Every catalogued kind fits in a bit of its own.
	var m Mask
	for _, k := range Kinds() {
		if m.Has(k) {
			t.Fatalf("%v shares a bit with an earlier kind", k)
		}
		m = m.Add(k)
		if !m.Has(k) {
			t.Fatalf("%v did not fit", k)
		}
	}
}

func TestMaskRejectsOutOfRange(t *testing.T) {
	var m Mask
	if got := m.Add(Kind(0)); got != 0 {
		t.Errorf("Add(0) = %b", got)
	}
	if got := m.Add(Kind(100)); got != 0 {
		t.Errorf("Add(100) = %b", got)
	}
	if m.Has(Kind(0)) || m.Has(Kind(100)) {
		t.Error("out-of-range membership")
	}
}
