package faas

import (
	"errors"
	"testing"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/sim"
)

// fnCall addresses the function deployEcho deploys.
var fnCall = Call{AZ: "r1-az-a", Function: "fn"}

func deployEcho(t *testing.T, cloud *cloudsim.Cloud, client *Client, d time.Duration) {
	t.Helper()
	if _, err := client.Deploy("r1-az-a", "fn", cloudsim.DeployConfig{
		MemoryMB: 1024,
		Behavior: cloudsim.SleepBehavior{D: d},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDoRetriesThroughThrottleStorm(t *testing.T) {
	env, cloud := world(t)
	client := NewClient(cloud, "acct")
	deployEcho(t, cloud, client, 20*time.Millisecond)
	var resp cloudsim.Response
	var elapsed time.Duration
	env.Go("client", func(p *sim.Proc) error {
		az, _ := cloud.AZ("r1-az-a")
		az.SetThrottleStorm(1) // total storm: every attempt is rejected
		if !az.FaultSnapshot().Faulted() {
			t.Error("snapshot does not report the storm")
		}
		env.Schedule(100*time.Millisecond, func() { az.SetThrottleStorm(0) })
		start := env.Now()
		resp = client.Do(p, InvokeSpec{Call: fnCall, Retry: RetryPolicy{MaxAttempts: 50}})
		elapsed = env.Now().Sub(start)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !resp.OK() {
		t.Fatalf("Do under storm: %v", resp.Err)
	}
	if elapsed < 100*time.Millisecond {
		t.Errorf("completed in %v — retries cannot have happened", elapsed)
	}
}

func TestDoRespectsAttemptBudget(t *testing.T) {
	env, cloud := world(t)
	client := NewClient(cloud, "acct")
	deployEcho(t, cloud, client, 20*time.Millisecond)
	var resp cloudsim.Response
	env.Go("client", func(p *sim.Proc) error {
		az, _ := cloud.AZ("r1-az-a")
		az.SetOutage(true) // every attempt fails
		resp = client.Do(p, InvokeSpec{Call: fnCall, Retry: RetryPolicy{MaxAttempts: 3}})
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.Err, cloudsim.ErrZoneOutage) {
		t.Fatalf("err = %v, want zone outage", resp.Err)
	}
}

// doFunc runs spec through DoFunc on a fresh client and returns its one
// answer, after setup has had its way with the zone.
func doFunc(t *testing.T, spec InvokeSpec, setup func(env *sim.Env, az *cloudsim.AZ)) cloudsim.Response {
	t.Helper()
	env, cloud := world(t)
	client := NewClient(cloud, "acct")
	deployEcho(t, cloud, client, 20*time.Millisecond)
	az, _ := cloud.AZ("r1-az-a")
	setup(env, az)
	var resp cloudsim.Response
	answers := 0
	client.DoFunc(spec, func(r cloudsim.Response) { resp, answers = r, answers+1 })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if answers != 1 {
		t.Fatalf("DoFunc answered %d times, want once", answers)
	}
	return resp
}

func TestDoFuncRetries(t *testing.T) {
	resp := doFunc(t, InvokeSpec{Call: fnCall, Retry: RetryPolicy{MaxAttempts: 20}},
		func(env *sim.Env, az *cloudsim.AZ) {
			az.SetOutage(true)
			env.Schedule(300*time.Millisecond, func() { az.SetOutage(false) })
		})
	if !resp.OK() {
		t.Fatalf("DoFunc through transient outage: %v", resp.Err)
	}
}

func TestRetryableClassification(t *testing.T) {
	for err, want := range map[error]bool{
		cloudsim.ErrThrottled:        true,
		cloudsim.ErrSaturated:        true,
		cloudsim.ErrZoneOutage:       true,
		cloudsim.ErrBadRequest:       false,
		cloudsim.ErrNoSuchDeployment: false,
		nil:                          false,
	} {
		if got := Retryable(err); got != want {
			t.Errorf("Retryable(%v) = %v, want %v", err, got, want)
		}
	}
}

// TestDoFuncAllocs pins one open-loop request through the envelope at zero
// heap allocations: a warm, plain invocation with a retry budget, started
// with DoFunc and answered through its callback. The envelope comes back
// from its client's free list and the cloud's request record from its
// pool, and every step is scheduled as a method value bound once per
// record (0 under -race too, where sync.Pool drops some of its puts; a
// process per request, as the open loop had before, cost a goroutine, two
// channels, an event and a handful of closures).
func TestDoFuncAllocs(t *testing.T) {
	env, cloud := world(t)
	client := NewClient(cloud, "acct")
	deployEcho(t, cloud, client, 10*time.Millisecond)
	spec := InvokeSpec{Call: Call{AZ: "r1-az-a", Function: "fn"}, Retry: RetryPolicy{MaxAttempts: 6}}
	var resp cloudsim.Response
	done := func(r cloudsim.Response) { resp = r }
	invoke := func() {
		client.DoFunc(spec, done)
		if err := env.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	invoke() // the cold start provisions the instance
	if !resp.OK() || !resp.Cold {
		t.Fatalf("first invocation: err %v, cold %v", resp.Err, resp.Cold)
	}
	allocs := testing.AllocsPerRun(100, invoke)
	if !resp.OK() || resp.Cold {
		t.Fatalf("warm invocation: err %v, cold %v", resp.Err, resp.Cold)
	}
	if allocs != 0 {
		t.Errorf("a warm DoFunc invocation allocates %.0f times, budget is 0", allocs)
	}
}
