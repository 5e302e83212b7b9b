package cpu

import (
	"strings"
	"testing"
)

// splitParse is ParseCPUInfo as it was before the interned fast path and
// the allocation-free line walk: split into lines, scan each. The fuzz
// target holds the current parser to it on every input.
func splitParse(cpuinfo string) (Kind, int, bool) {
	var model string
	procs := 0
	for _, line := range strings.Split(cpuinfo, "\n") {
		switch {
		case strings.HasPrefix(line, "processor"):
			procs++
		case strings.HasPrefix(line, "model name") && model == "":
			if _, rest, ok := strings.Cut(line, ":"); ok {
				model = strings.TrimSpace(rest)
			}
		}
	}
	k, err := FromModel(model)
	if model == "" || err != nil {
		return 0, 0, false
	}
	return k, procs, true
}

// FuzzParseCPUInfo feeds the parser arbitrary guest-visible text. It must
// never panic, must agree with the reference parser on every input, and
// must return what was rendered for every text CPUInfo can produce. The
// seed corpus under testdata/fuzz/FuzzParseCPUInfo holds every interned
// text (catalogue x 1..6 vCPUs) plus truncated, duplicated-line and
// reordered variants, and runs under plain `go test`.
func FuzzParseCPUInfo(f *testing.F) {
	f.Add("", uint8(0), uint8(0))
	f.Add("model name : Quantum CPU 9000\nprocessor: 0\n", uint8(3), uint8(9))
	f.Fuzz(func(t *testing.T, text string, k, v uint8) {
		kind, procs, err := ParseCPUInfo(text)
		wantKind, wantProcs, ok := splitParse(text)
		if (err == nil) != ok || kind != wantKind || procs != wantProcs {
			t.Fatalf("ParseCPUInfo(%q) = (%v, %d, %v), reference parser says (%v, %d, ok=%v)",
				text, kind, procs, err, wantKind, wantProcs, ok)
		}
		if err == nil && !kind.Valid() {
			t.Fatalf("ParseCPUInfo(%q) returned uncatalogued kind %d", text, int(kind))
		}

		// Round trip, on the kind and guest size the fuzzer picked; sizes
		// past the interned table take the rendering path.
		rk, rv := Kind(int(k)%numKinds+1), int(v)%(maxInterned+2)+1
		gotK, gotV, err := ParseCPUInfo(CPUInfo(rk, rv))
		if err != nil || gotK != rk || gotV != rv {
			t.Fatalf("ParseCPUInfo(CPUInfo(%v, %d)) = (%v, %d, %v)", rk, rv, gotK, gotV, err)
		}
	})
}

// TestCPUInfoInterned pins the point of the table: the texts the simulation
// asks for per invocation, and their parses, cost no allocation.
func TestCPUInfoInterned(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range Kinds() {
			for v := 1; v <= maxInterned; v++ {
				gotK, gotV, err := ParseCPUInfo(CPUInfo(k, v))
				if err != nil || gotK != k || gotV != v {
					t.Fatalf("ParseCPUInfo(CPUInfo(%v, %d)) = (%v, %d, %v)", k, v, gotK, gotV, err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("rendering and parsing every interned cpuinfo allocates %.0f times, want 0", allocs)
	}
}
