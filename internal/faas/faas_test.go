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
		resp = client.Invoke(p, Call{AZ: "r1-az-a", Function: "fn"})
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

func TestInvokeAsyncFuture(t *testing.T) {
	env, cloud := world(t)
	client := NewClient(cloud, "acct")
	if _, err := client.Deploy("r1-az-a", "fn", cloudsim.DeployConfig{
		MemoryMB: 1024, Behavior: cloudsim.SleepBehavior{D: 50 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	env.Go("client", func(p *sim.Proc) error {
		f := client.InvokeAsync(Call{AZ: "r1-az-a", Function: "fn"})
		if f.Done() {
			t.Error("future done before any time passed")
		}
		r := f.Wait(p)
		if !r.OK() {
			t.Errorf("async invoke: %v", r.Err)
		}
		if !f.Done() {
			t.Error("future not done after Wait")
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInvokeBatchParallelism(t *testing.T) {
	env, cloud := world(t)
	client := NewClient(cloud, "acct")
	if _, err := client.Deploy("r1-az-a", "fn", cloudsim.DeployConfig{
		MemoryMB: 1024, Behavior: cloudsim.SleepBehavior{D: 100 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	var responses []cloudsim.Response
	env.Go("client", func(p *sim.Proc) error {
		t0 := env.Now()
		responses = client.InvokeBatch(p, Call{AZ: "r1-az-a", Function: "fn"}, 50)
		elapsed = env.Now().Sub(t0)
		return nil
	})
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
		t.Errorf("batch used %d unique FIs, want 50 (parallel)", len(fis))
	}
	// Parallel batch takes ~one invocation's latency, not 50x.
	if elapsed > time.Second {
		t.Errorf("batch of 50 took %v, not parallel", elapsed)
	}
}

func TestClientLocationAddsLatency(t *testing.T) {
	env, cloud := world(t)
	sydney, _ := geo.City("sydney")
	near := NewClient(cloud, "acct")
	far := NewClient(cloud, "acct", WithLocation(sydney))
	if _, err := near.Deploy("r1-az-a", "fn", cloudsim.DeployConfig{
		MemoryMB: 1024, Behavior: cloudsim.SleepBehavior{D: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	var dNear, dFar time.Duration
	env.Go("client", func(p *sim.Proc) error {
		// Warm up to exclude cold starts from both timings.
		near.Invoke(p, Call{AZ: "r1-az-a", Function: "fn"})
		t0 := env.Now()
		near.Invoke(p, Call{AZ: "r1-az-a", Function: "fn"})
		dNear = env.Now().Sub(t0)
		t1 := env.Now()
		far.Invoke(p, Call{AZ: "r1-az-a", Function: "fn"})
		dFar = env.Now().Sub(t1)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dFar <= dNear+50*time.Millisecond {
		t.Errorf("sydney client %v vs co-located %v: latency model not applied", dFar, dNear)
	}
}
