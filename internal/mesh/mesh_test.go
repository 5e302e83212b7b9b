package mesh

import (
	"testing"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/faas"
	"skyfaas/internal/geo"
	"skyfaas/internal/sim"
)

func smallCloud(t *testing.T) *cloudsim.Cloud {
	t.Helper()
	env := sim.NewEnv(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	catalog := []cloudsim.RegionSpec{
		{
			Provider: cloudsim.AWS, Name: "aws-r1", Loc: geo.Coord{},
			AZs: []cloudsim.AZSpec{
				{Name: "aws-r1-a", PoolFIs: 512, ArmPoolFIs: 128, Mix: map[cpu.Kind]float64{cpu.Xeon25: 1}},
				{Name: "aws-r1-b", PoolFIs: 512, ArmPoolFIs: 128, Mix: map[cpu.Kind]float64{cpu.Xeon25: 1}},
			},
		},
		{
			Provider: cloudsim.IBM, Name: "ibm-r1", Loc: geo.Coord{},
			AZs: []cloudsim.AZSpec{
				{Name: "ibm-r1-a", PoolFIs: 256, Mix: map[cpu.Kind]float64{cpu.IBMCascade25: 1}},
			},
		},
		{
			Provider: cloudsim.DO, Name: "do-r1", Loc: geo.Coord{},
			AZs: []cloudsim.AZSpec{
				{Name: "do-r1-a", PoolFIs: 256, Mix: map[cpu.Kind]float64{cpu.DOXeon26: 1}},
			},
		},
	}
	return cloudsim.New(env, 9, catalog, cloudsim.Options{HorizonDays: 1})
}

func TestBuildMatrix(t *testing.T) {
	cloud := smallCloud(t)
	m, err := Build(cloud, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// AWS: 2 AZs x 9 memories x 2 archs = 36; IBM: 1 x 3; DO: 1 x 2.
	byProvider := map[cloudsim.Provider]int{}
	for _, ep := range m.Endpoints() {
		byProvider[ep.Provider]++
	}
	if byProvider[cloudsim.AWS] != 36 {
		t.Errorf("AWS endpoints = %d, want 36", byProvider[cloudsim.AWS])
	}
	if byProvider[cloudsim.IBM] != 3 {
		t.Errorf("IBM endpoints = %d, want 3", byProvider[cloudsim.IBM])
	}
	if byProvider[cloudsim.DO] != 2 {
		t.Errorf("DO endpoints = %d, want 2", byProvider[cloudsim.DO])
	}
	if m.Size() != 41 {
		t.Errorf("total = %d, want 41", m.Size())
	}
	zones := map[string]bool{}
	for _, ep := range m.Endpoints() {
		zones[ep.AZ] = true
	}
	if len(zones) != 4 {
		t.Errorf("endpoints cover zones %v, want 4", zones)
	}
}

func TestMinimalMatrix(t *testing.T) {
	m, err := Build(smallCloud(t), Config{Minimal: true})
	if err != nil {
		t.Fatal(err)
	}
	// One x86 endpoint per zone: 4096 MB on AWS and IBM, 1024 MB on DO.
	want := map[string]int{"aws-r1-a": 4096, "aws-r1-b": 4096, "ibm-r1-a": 4096, "do-r1-a": 1024}
	if m.Size() != len(want) {
		t.Errorf("total = %d, want %d", m.Size(), len(want))
	}
	for az, mem := range want {
		if _, ok := m.Lookup(az, mem, cpu.X86); !ok {
			t.Errorf("no %d MB x86 endpoint in %s", mem, az)
		}
	}
}

func TestPaperScaleMatrix(t *testing.T) {
	// Over the full default catalog, the AWS matrix alone exceeds 600
	// deployments (the paper's >1,600 includes its per-AZ sampling
	// functions, deployed on demand by the sampler).
	env := sim.NewEnv(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	cloud := cloudsim.New(env, 9, nil, cloudsim.Options{HorizonDays: 1})
	m, err := Build(cloud, Config{})
	if err != nil {
		t.Fatal(err)
	}
	byProvider := map[cloudsim.Provider]int{}
	for _, ep := range m.Endpoints() {
		byProvider[ep.Provider]++
	}
	if byProvider[cloudsim.AWS] < 600 {
		t.Errorf("AWS endpoints = %d, want >= 600", byProvider[cloudsim.AWS])
	}
	if byProvider[cloudsim.IBM] != 8*3 {
		t.Errorf("IBM endpoints = %d, want 24", byProvider[cloudsim.IBM])
	}
}

func TestLookupAndNearest(t *testing.T) {
	cloud := smallCloud(t)
	m, err := Build(cloud, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ep, ok := m.Lookup("aws-r1-a", 2048, cpu.X86)
	if !ok {
		t.Fatal("exact lookup failed")
	}
	if ep.MemoryMB != 2048 || ep.AZ != "aws-r1-a" || ep.Arch != cpu.X86 {
		t.Fatalf("endpoint = %+v", ep)
	}
	if _, ok := m.Lookup("aws-r1-a", 3000, cpu.X86); ok {
		t.Fatal("lookup of undeployed memory succeeded")
	}
	// Nearest rounds up.
	near, ok := m.Nearest("aws-r1-a", 3000, cpu.X86)
	if !ok || near.MemoryMB != 4096 {
		t.Fatalf("nearest(3000) = %+v ok=%v, want 4096", near, ok)
	}
	// Above the max, returns the largest.
	big, ok := m.Nearest("aws-r1-a", 99999, cpu.X86)
	if !ok || big.MemoryMB != 10240 {
		t.Fatalf("nearest(99999) = %+v, want 10240", big)
	}
	if _, ok := m.Nearest("ghost-az", 1024, cpu.X86); ok {
		t.Fatal("nearest in unknown AZ succeeded")
	}
	// ARM endpoints exist on AWS only.
	if _, ok := m.Nearest("aws-r1-a", 1024, cpu.ARM); !ok {
		t.Fatal("no ARM endpoint on AWS")
	}
	if _, ok := m.Nearest("ibm-r1-a", 1024, cpu.ARM); ok {
		t.Fatal("ARM endpoint on IBM")
	}
}

func TestMeshEndpointsInvocable(t *testing.T) {
	cloud := smallCloud(t)
	m, err := Build(cloud, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ep, ok := m.Lookup("ibm-r1-a", 2048, cpu.X86)
	if !ok {
		t.Fatal("no IBM endpoint")
	}
	env := cloud.Env()
	var resp cloudsim.Response
	env.Go("client", func(p *sim.Proc) error {
		resp = faas.NewClient(cloud, "a").Do(p, faas.InvokeSpec{Call: faas.Call{AZ: ep.AZ, Function: ep.Function}})
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !resp.OK() {
		t.Fatalf("mesh endpoint invoke failed: %v", resp.Err)
	}
	if resp.CPU != cpu.IBMCascade25 {
		t.Errorf("ran on %v", resp.CPU)
	}
}

func TestBuildIdempotenceGuard(t *testing.T) {
	cloud := smallCloud(t)
	if _, err := Build(cloud, Config{}); err != nil {
		t.Fatal(err)
	}
	// Second build collides with existing deployments.
	if _, err := Build(cloud, Config{}); err == nil {
		t.Fatal("double build succeeded")
	}
}
