package faas

import (
	"testing"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/sim"
)

var testEpoch = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

func world(t *testing.T) (*sim.Env, *cloudsim.Cloud) {
	t.Helper()
	env := sim.NewEnv(testEpoch)
	catalog := []cloudsim.RegionSpec{{
		Provider: cloudsim.AWS,
		Name:     "r1",
		Loc:      geo.Coord{Lat: 40, Lon: -80},
		AZs: []cloudsim.AZSpec{{
			Name:    "r1-az-a",
			PoolFIs: 2048,
			Mix:     map[cpu.Kind]float64{cpu.Xeon25: 1},
		}},
	}}
	return env, cloudsim.New(env, 5, catalog, cloudsim.Options{HorizonDays: 1})
}

func TestDeployAndInvoke(t *testing.T) {
	env, cloud := world(t)
	client := NewClient(cloud, "acct")
	if client.Account() != "acct" {
		t.Fatalf("account = %q", client.Account())
	}
	if client.Cloud() != cloud {
		t.Fatal("Cloud() accessor broken")
	}
	if _, err := client.Deploy("r1-az-a", "fn", cloudsim.DeployConfig{
		MemoryMB: 1024,
		Behavior: cloudsim.SleepBehavior{D: 20 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	var resp cloudsim.Response
	env.Go("client", func(p *sim.Proc) error {
		resp = client.Do(p, InvokeSpec{Call: Call{AZ: "r1-az-a", Function: "fn"}})
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !resp.OK() {
		t.Fatalf("invoke: %v", resp.Err)
	}
	if resp.BilledMS < 20 {
		t.Errorf("billed %.1f ms", resp.BilledMS)
	}
}

func TestDeployErrorWrapped(t *testing.T) {
	_, cloud := world(t)
	client := NewClient(cloud, "acct")
	if _, err := client.Deploy("ghost", "fn", cloudsim.DeployConfig{
		MemoryMB: 128, Behavior: cloudsim.SleepBehavior{},
	}); err == nil {
		t.Fatal("deploy to unknown AZ succeeded")
	}
}

// TestStartParallelism: 50 bare attempts started at one instant run side
// by side, each on its own instance.
func TestStartParallelism(t *testing.T) {
	env, cloud := world(t)
	client := NewClient(cloud, "acct")
	if _, err := client.Deploy("r1-az-a", "fn", cloudsim.DeployConfig{
		MemoryMB: 1024, Behavior: cloudsim.SleepBehavior{D: 100 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	var responses []cloudsim.Response
	t0 := env.Now()
	for range 50 {
		client.Start(Call{AZ: "r1-az-a", Function: "fn"}, func(r cloudsim.Response) {
			responses = append(responses, r)
			elapsed = env.Now().Sub(t0)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(responses) != 50 {
		t.Fatalf("%d responses", len(responses))
	}
	fis := map[int]bool{}
	for i, r := range responses {
		if !r.OK() {
			t.Fatalf("response %d: %v", i, r.Err)
		}
		fis[r.Profile.Instance] = true
	}
	if len(fis) != 50 {
		t.Errorf("50 starts used %d unique FIs, want 50 (parallel)", len(fis))
	}
	// Parallel attempts take ~one invocation's latency, not 50x.
	if elapsed > time.Second {
		t.Errorf("50 starts took %v, not parallel", elapsed)
	}
}
