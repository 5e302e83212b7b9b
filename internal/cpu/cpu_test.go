package cpu

import (
	"strings"
	"testing"
)

func TestKindsCoversCatalog(t *testing.T) {
	ks := Kinds()
	if len(ks) != numKinds {
		t.Fatalf("Kinds() returned %d entries, want %d", len(ks), numKinds)
	}
	for _, k := range ks {
		if !k.Valid() {
			t.Errorf("kind %d listed but not in catalog", int(k))
		}
		info := MustLookup(k)
		if info.Kind != k {
			t.Errorf("catalog entry for %v has Kind %v", k, info.Kind)
		}
		if info.Model == "" || info.Vendor == "" {
			t.Errorf("catalog entry for %v missing model/vendor", k)
		}
		if info.ClockGHz <= 0 {
			t.Errorf("catalog entry for %v has clock %v", k, info.ClockGHz)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup(Kind(999)); ok {
		t.Fatal("Lookup(999) succeeded")
	}
	if Kind(999).Valid() {
		t.Fatal("Kind(999).Valid() = true")
	}
}

func TestStringLabels(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{Xeon25, "Xeon 2.50GHz"},
		{Xeon29, "Xeon 2.90GHz"},
		{Xeon30, "Xeon 3.00GHz"},
		{EPYC, "AMD EPYC"},
		{Graviton, "Graviton2"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestArchString(t *testing.T) {
	if X86.String() != "x86_64" || ARM.String() != "arm64" {
		t.Fatalf("arch strings: %q %q", X86, ARM)
	}
	if !strings.HasPrefix(Arch(42).String(), "Arch(") {
		t.Fatal("unknown arch not flagged")
	}
}

func TestCPUInfoRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		for _, vcpus := range []int{1, 2, 6} {
			dump := CPUInfo(k, vcpus)
			got, procs, err := ParseCPUInfo(dump)
			if err != nil {
				t.Fatalf("ParseCPUInfo(%v, %d): %v", k, vcpus, err)
			}
			if got != k {
				t.Errorf("round trip %v -> %v", k, got)
			}
			if procs != vcpus {
				t.Errorf("%v: procs = %d, want %d", k, procs, vcpus)
			}
		}
	}
}

// TestParseCPUInfoMemoMatchesParse checks the interned table's answers
// against the parse they stand in for, for every kind and guest size the
// table holds, on the table's own texts and on copies that share no bytes
// with them.
func TestParseCPUInfoMemoMatchesParse(t *testing.T) {
	for _, k := range Kinds() {
		for v := 1; v <= maxInterned; v++ {
			text := CPUInfo(k, v)
			wantK, wantV, wantErr := parseCPUInfo(text)
			if wantErr != nil || wantK != k || wantV != v {
				t.Fatalf("parse of CPUInfo(%v, %d) = (%v, %d, %v)", k, v, wantK, wantV, wantErr)
			}
			for _, in := range []string{text, strings.Clone(text)} {
				gotK, gotV, err := ParseCPUInfo(in)
				if gotK != wantK || gotV != wantV || err != nil {
					t.Errorf("ParseCPUInfo(CPUInfo(%v, %d)) = (%v, %d, %v), parse says (%v, %d)", k, v, gotK, gotV, err, wantK, wantV)
				}
			}
		}
	}
}

func TestCPUInfoClampsVCPUs(t *testing.T) {
	dump := CPUInfo(Xeon25, 0)
	_, procs, err := ParseCPUInfo(dump)
	if err != nil {
		t.Fatal(err)
	}
	if procs != 1 {
		t.Fatalf("procs = %d, want clamp to 1", procs)
	}
}

func TestCPUInfoUnknownKindEmpty(t *testing.T) {
	if got := CPUInfo(Kind(0), 2); got != "" {
		t.Fatalf("CPUInfo(0) = %q", got)
	}
}

func TestParseCPUInfoErrors(t *testing.T) {
	if _, _, err := ParseCPUInfo("no such content"); err == nil {
		t.Fatal("parse of garbage succeeded")
	}
	if _, _, err := ParseCPUInfo("model name : Quantum CPU 9000\nprocessor: 0\n"); err == nil {
		t.Fatal("parse of unknown model succeeded")
	}
}

func TestFromModelExactMatch(t *testing.T) {
	for _, k := range Kinds() {
		info := MustLookup(k)
		got, err := FromModel(info.Model)
		if err != nil {
			t.Fatalf("FromModel(%q): %v", info.Model, err)
		}
		if got != k {
			t.Errorf("FromModel(%q) = %v, want %v", info.Model, got, k)
		}
	}
}

func TestArchAssignments(t *testing.T) {
	if MustLookup(Graviton).Arch != ARM {
		t.Error("Graviton should be ARM")
	}
	for _, k := range []Kind{Xeon25, Xeon29, Xeon30, EPYC, IBMCascade24, DOXeon26} {
		if MustLookup(k).Arch != X86 {
			t.Errorf("%v should be x86", k)
		}
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup(0) did not panic")
		}
	}()
	MustLookup(Kind(0))
}
