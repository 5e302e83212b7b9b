package cloudsim

import (
	"testing"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/sim"
)

// TestExcursionIsTransient drives the excursion path directly: a chunk of
// the pool flips to a perturbed mix and reverts within the hour (Fig. 8's
// isolated bad hours).
func TestExcursionIsTransient(t *testing.T) {
	env := sim.NewEnv(testEpoch)
	catalog := []RegionSpec{{
		Provider: AWS, Name: "r", Loc: geo.Coord{},
		AZs: []AZSpec{{
			Name: "r-az", PoolFIs: 16000,
			Mix:     map[cpu.Kind]float64{cpu.Xeon25: 0.5, cpu.Xeon30: 0.3, cpu.EPYC: 0.2},
			MixWalk: 0.6,
		}},
	}}
	cloud := New(env, 77, catalog, Options{HorizonDays: 1})
	az, _ := cloud.AZ("r-az")
	// Excursions run on hourly-drift zones, which are built at
	// construction; this zone has none, so build it as they are.
	az.ensure()
	kindsOf := func() []cpu.Kind {
		out := make([]cpu.Kind, len(az.hosts))
		for i, h := range az.hosts {
			out[i] = h.kind
		}
		return out
	}
	diff := func(a, b []cpu.Kind) int {
		n := 0
		for i := range a {
			if a[i] != b[i] {
				n++
			}
		}
		return n
	}
	before := kindsOf()
	az.excursion()
	// Shortly after, a sizeable chunk of hosts carry swapped kinds...
	if err := env.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if changed := diff(before, kindsOf()); changed < len(before)/10 {
		t.Fatalf("excursion flipped only %d/%d hosts", changed, len(before))
	}
	// ...and an hour later every host carries its original kind again.
	if err := env.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if changed := diff(before, kindsOf()); changed != 0 {
		t.Fatalf("excursion did not revert: %d hosts still flipped", changed)
	}
}

// TestExcursionSparesBusyHosts verifies hosts with live instances are
// neither flipped nor force-restored mid-use.
func TestExcursionSparesBusyHosts(t *testing.T) {
	env := sim.NewEnv(testEpoch)
	catalog := []RegionSpec{{
		Provider: AWS, Name: "r", Loc: geo.Coord{},
		AZs: []AZSpec{{
			Name: "r-az", PoolFIs: 256, // 2 hosts
			Mix:     map[cpu.Kind]float64{cpu.Xeon25: 1},
			MixWalk: 0.6,
		}},
	}}
	cloud := New(env, 77, catalog, Options{HorizonDays: 1})
	az, _ := cloud.AZ("r-az")
	if _, err := cloud.Deploy("r-az", "fn", DeployConfig{
		MemoryMB: 1024, Behavior: SleepBehavior{D: 2 * time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	// Occupy every slot so no host is idle.
	for i := 0; i < 256; i++ {
		cloud.StartInvoke(Request{Account: "a", AZ: "r-az", Function: "fn"}, func(Response) {})
	}
	if err := env.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	az.excursion()
	if err := env.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := az.TrueMix()[cpu.Xeon25]; got != 1 {
		t.Fatalf("busy hosts were flipped: %v", az.TrueMix())
	}
}

// TestAccessors covers the thin read-only surface the experiments lean on.
func TestAccessors(t *testing.T) {
	env := sim.NewEnv(testEpoch)
	catalog := []RegionSpec{{
		Provider: AWS, Name: "r", Loc: geo.Coord{Lat: 1, Lon: 2},
		AZs: []AZSpec{{Name: "r-az", PoolFIs: 256, Mix: map[cpu.Kind]float64{cpu.Xeon25: 1}}},
	}}
	cloud := New(env, 3, catalog, Options{HorizonDays: 1})
	az, _ := cloud.AZ("r-az")
	if az.Name() != "r-az" || az.Region().Name() != "r" || az.Spec().PoolFIs != 256 {
		t.Fatal("AZ accessors broken")
	}
	if az.CapacityFIs() != 256 {
		t.Fatalf("capacity = %d", az.CapacityFIs())
	}
	dep, err := cloud.Deploy("r-az", "fn", DeployConfig{MemoryMB: 1024, Behavior: SleepBehavior{D: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Name() != "fn" || dep.MemoryMB() != 1024 || dep.AZName() != "r-az" {
		t.Fatal("deployment accessors broken")
	}
	var resp Response
	env.Go("client", func(p *sim.Proc) error {
		resp = invoke(p, cloud, Request{Account: "a", AZ: "r-az", Function: "fn"})
		resp2 := invoke(p, cloud, Request{Account: "a", AZ: "r-az", Function: "fn"})
		_ = resp2
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if resp.Profile.Instance == 0 {
		t.Fatal("no FI")
	}
	region, ok := cloud.Region("r")
	if !ok || region.Provider() != AWS || region.Loc().Lat != 1 {
		t.Fatal("region accessors broken")
	}
	if region.Spec().Name != "r" {
		t.Fatal("region spec broken")
	}
}
