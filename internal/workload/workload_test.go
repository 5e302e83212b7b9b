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
	// Spec with no table: clock-ratio fallback.
	bare := Spec{Name: "bare"}
	got := bare.CPUFactor(cpu.Xeon30)
	if math.Abs(got-2.5/3.0) > 1e-9 {
		t.Fatalf("clock fallback = %v, want %v", got, 2.5/3.0)
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

func TestRunAllWorkloadsSucceed(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			out, err := Run(id, Input{Seed: 42, TempDir: t.TempDir()})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if out.Digest == "" || len(out.Digest) != 40 {
				t.Errorf("digest %q not a sha1 hex", out.Digest)
			}
			if out.Bytes <= 0 {
				t.Errorf("bytes = %d", out.Bytes)
			}
			if out.Detail == "" {
				t.Error("empty detail")
			}
		})
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	// Digests must be stable for a fixed seed and differ across seeds.
	// logistic_regression runs two goroutines but averages per-epoch, so it
	// is deterministic too.
	for _, id := range IDs() {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			dir := t.TempDir()
			a, err := Run(id, Input{Seed: 7, TempDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(id, Input{Seed: 7, TempDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest != b.Digest {
				t.Errorf("same seed, different digests: %s vs %s", a.Digest, b.Digest)
			}
			c, err := Run(id, Input{Seed: 8, TempDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest == c.Digest {
				t.Errorf("different seeds produced identical digest %s", a.Digest)
			}
		})
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(ID(0), Input{}); err == nil {
		t.Fatal("Run(0) succeeded")
	}
}

func TestSha1HashUsesPayload(t *testing.T) {
	a, err := Run(Sha1Hash, Input{Seed: 1, Payload: []byte("alpha")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Sha1Hash, Input{Seed: 1, Payload: []byte("beta")})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatal("payload ignored")
	}
}

func TestScaleGrowsWork(t *testing.T) {
	small, err := Run(MathService, Input{Seed: 3, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(MathService, Input{Seed: 3, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if big.Bytes <= small.Bytes {
		t.Fatalf("scale 2 bytes %d <= scale 1 bytes %d", big.Bytes, small.Bytes)
	}
}

func TestWCCounts(t *testing.T) {
	lines, words, chars := wc([]byte("one two\nthree\tfour five\n"))
	if lines != 2 || words != 5 || chars != 24 {
		t.Fatalf("wc = %d/%d/%d", lines, words, chars)
	}
}

func TestScaleNearestDimensions(t *testing.T) {
	src := make([]byte, 16*16*4)
	for i := range src {
		src[i] = byte(i)
	}
	dst := scaleNearest(src, 16, 4)
	if len(dst) != 4*4*4 {
		t.Fatalf("len(dst) = %d", len(dst))
	}
	// Top-left pixel preserved.
	for i := 0; i < 4; i++ {
		if dst[i] != src[i] {
			t.Fatalf("pixel 0 mismatch at byte %d", i)
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(4)
	if !uf.union(0, 1) {
		t.Fatal("first union failed")
	}
	if uf.union(1, 0) {
		t.Fatal("re-union succeeded")
	}
	uf.union(2, 3)
	if uf.find(0) == uf.find(2) {
		t.Fatal("separate components merged")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(2) {
		t.Fatal("components not merged")
	}
}
