package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestEX9Deterministic: equal seeds replay the mesh load exactly, and the
// ignored MeshLoadConfig.Shards leaves it alone, so a caller that still
// sets it compares two runs of the one engine and always sees them agree.
// Throughput is machine-dependent (it measures real wall clock) and is
// deliberately not asserted beyond being positive.
func TestEX9Deterministic(t *testing.T) {
	cfg := EX9Config{Seed: 5}.Reduced()
	a, err := RunEX9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEX9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum || a.Invocations != b.Invocations {
		t.Errorf("same seed, different load: %016x/%d vs %016x/%d", a.Checksum, a.Invocations, b.Checksum, b.Invocations)
	}
	if a.Zones == 0 || a.Deployments == 0 {
		t.Errorf("empty world: %d zones, %d deployments", a.Zones, a.Deployments)
	}
	if a.Invocations == 0 || a.InvPerSec <= 0 {
		t.Errorf("no throughput: %+v", a)
	}
	out := a.Render()
	if !strings.Contains(out, "EX-9") || !strings.Contains(out, fmt.Sprintf("%016x", a.Checksum)) {
		t.Errorf("render:\n%s", out)
	}

	one := MeshLoadConfig{Seed: 5, Invocations: 4000, Workers: 2}
	four := one
	one.Shards, four.Shards = 1, 4
	x, err := RunMeshLoad(one)
	if err != nil {
		t.Fatal(err)
	}
	y, err := RunMeshLoad(four)
	if err != nil {
		t.Fatal(err)
	}
	if x.Checksum != y.Checksum || x.Invocations != y.Invocations {
		t.Errorf("Shards changed the load: %016x/%d vs %016x/%d", x.Checksum, x.Invocations, y.Checksum, y.Invocations)
	}
}

// TestEX9SeedSensitivity: the checksum must actually depend on the traffic —
// a different seed routes and schedules differently and must not collide.
func TestEX9SeedSensitivity(t *testing.T) {
	a, err := RunMeshLoad(MeshLoadConfig{Seed: 5, Invocations: 2000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMeshLoad(MeshLoadConfig{Seed: 6, Invocations: 2000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum == b.Checksum {
		t.Errorf("checksum insensitive to seed: %016x", a.Checksum)
	}
}

func TestEX9WriteCSV(t *testing.T) {
	res := EX9Result{Zones: 49, Deployments: 698, Invocations: 10, WallSeconds: 0.5, InvPerSec: 20, Checksum: 7}
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, dir, "ex9_scalability.csv")
	if !strings.Contains(got, "zones,deployments,invocations,wall_s,inv_per_s,checksum") ||
		!strings.Contains(got, "49,698,10,") || !strings.Contains(got, "0000000000000007") {
		t.Errorf("csv:\n%s", got)
	}
}
