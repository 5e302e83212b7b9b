package workload

import (
	"math"
	"strings"
	"testing"

	"skyfaas/internal/cpu"
)

func TestCatalogCompleteness(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("catalog has %d workloads, Table 1 lists 12", len(all))
	}
	seen := make(map[string]bool)
	for _, s := range all {
		if s.Name == "" || s.Description == "" {
			t.Errorf("%v: empty name/description", s.ID)
		}
		if seen[s.Name] {
			t.Errorf("duplicate name %q", s.Name)
		}
		seen[s.Name] = true
		if s.VCPUs < 1 || s.VCPUs > 2 {
			t.Errorf("%s: vCPUs %v outside Table-1 range", s.Name, s.VCPUs)
		}
		if s.BaseMS <= 0 {
			t.Errorf("%s: non-positive BaseMS", s.Name)
		}
		if s.NoiseFrac <= 0 || s.NoiseFrac > 0.2 {
			t.Errorf("%s: NoiseFrac %v implausible", s.Name, s.NoiseFrac)
		}
	}
}

func TestTable1VCPUs(t *testing.T) {
	// Table 1 pins specific vCPU demands.
	want := map[ID]float64{
		GraphMST: 1, GraphBFS: 1, PageRank: 1.2, DiskWriter: 1,
		DiskWriteProcess: 1, Zipper: 2, Thumbnailer: 1, Sha1Hash: 1,
		JSONFlattener: 1, MathService: 2, MatrixMultiply: 2, LogisticRegression: 2,
	}
	for id, v := range want {
		if spec, _ := Get(id); spec.VCPUs != v {
			t.Errorf("%v vCPUs = %v, want %v", id, spec.VCPUs, v)
		}
	}
}

func TestGetAndByName(t *testing.T) {
	if _, ok := Get(ID(0)); ok {
		t.Error("Get(0) succeeded")
	}
	if _, ok := Get(ID(99)); ok {
		t.Error("Get(99) succeeded")
	}
	for _, id := range IDs() {
		spec, ok := Get(id)
		if !ok {
			t.Fatalf("Get(%v) failed for a catalogued id", id)
		}
		byName, ok := ByName(spec.Name)
		if !ok || byName.ID != id {
			t.Errorf("ByName(%q) mismatch", spec.Name)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName(nonexistent) succeeded")
	}
	if !strings.Contains(ID(99).String(), "workload(") {
		t.Error("unknown ID String not flagged")
	}
}

// TestFig9FactorShape verifies the encoded ground truth matches the paper's
// observed performance hierarchy (§4.5 / Fig. 9).
func TestFig9FactorShape(t *testing.T) {
	deviants := map[ID]bool{DiskWriter: true, DiskWriteProcess: true, Sha1Hash: true}
	for _, s := range All() {
		x25 := s.CPUFactor(cpu.Xeon25)
		x29 := s.CPUFactor(cpu.Xeon29)
		x30 := s.CPUFactor(cpu.Xeon30)
		epyc := s.CPUFactor(cpu.EPYC)
		if x25 != 1 {
			t.Errorf("%s: baseline factor %v != 1", s.Name, x25)
		}
		if x30 >= 1 {
			t.Errorf("%s: 3.0GHz factor %v not faster than baseline", s.Name, x30)
		}
		if !deviants[s.ID] {
			if x30 < 0.85 || x30 > 0.95 {
				t.Errorf("%s: 3.0GHz factor %v outside 5-15%% faster band", s.Name, x30)
			}
			if x29 < 1.08 || x29 > 1.30 {
				t.Errorf("%s: 2.9GHz factor %v outside slower band", s.Name, x29)
			}
			if epyc <= x29 || epyc > 1.50 {
				t.Errorf("%s: EPYC factor %v should be slowest (<=1.5)", s.Name, epyc)
			}
		}
	}
	// The named exceptions.
	disk, _ := Get(DiskWriter)
	lr, _ := Get(LogisticRegression)
	ms, _ := Get(MathService)
	if f := disk.CPUFactor(cpu.EPYC); f >= 1 {
		t.Errorf("disk_writer EPYC factor %v: paper observed EPYC slightly beating baseline", f)
	}
	if f := lr.CPUFactor(cpu.EPYC); f < 1.45 {
		t.Errorf("logistic_regression EPYC factor %v: should be among the worst (~1.5)", f)
	}
	if f := ms.CPUFactor(cpu.EPYC); f < 1.4 {
		t.Errorf("math_service EPYC factor %v: should be near-worst", f)
	}
}

func TestCPUFactorFallback(t *testing.T) {
	s, _ := Get(GraphMST)
	// Unknown kind: neutral.
	if got := s.CPUFactor(cpu.Kind(99)); got != 1 {
		t.Fatalf("unknown kind factor = %v", got)
	}
}

// TestCPUFactorsCoverEveryKind: a catalogued CPU missing from a spec's table
// would run that workload at a silent 1×, so every kind needs an entry.
func TestCPUFactorsCoverEveryKind(t *testing.T) {
	for _, s := range All() {
		for _, k := range cpu.Kinds() {
			if _, ok := s.factors[k]; !ok {
				t.Errorf("%s: no CPU factor for %v", s.Name, k)
			}
		}
	}
}

func TestMemoryFactor(t *testing.T) {
	s, _ := Get(MatrixMultiply) // 2 vCPUs -> needs ~3538 MB for full speed
	if got := s.MemoryFactor(10240); got != 1 {
		t.Errorf("10GB factor = %v, want 1", got)
	}
	if got := s.MemoryFactor(0); got != 1 {
		t.Errorf("zero-memory factor = %v, want neutral", got)
	}
	half := s.MemoryFactor(1769)
	if math.Abs(half-2) > 1e-9 {
		t.Errorf("1769MB factor = %v, want 2 (half the demanded CPU)", half)
	}
	if lo, hi := s.MemoryFactor(512), s.MemoryFactor(256); hi <= lo {
		t.Errorf("memory factor not monotone: %v vs %v", lo, hi)
	}
	one, _ := Get(GraphMST)
	if got := one.MemoryFactor(1769); got != 1 {
		t.Errorf("1-vCPU workload at 1769MB = %v, want 1", got)
	}
}
