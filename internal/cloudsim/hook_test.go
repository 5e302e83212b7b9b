package cloudsim

import (
	"errors"
	"testing"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// TestOnResponseHook verifies the platform tap sees every delivered
// response — successes, throttles, and probe declines alike.
func TestOnResponseHook(t *testing.T) {
	env := sim.NewEnv(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	catalog := []RegionSpec{{
		Provider: AWS, Name: "r", Loc: geo.Coord{},
		AZs: []AZSpec{plainAZ(256)},
	}}
	var seen []Response
	var fns []string
	cloud := New(env, 3, catalog, Options{
		HorizonDays: 1,
		Quota:       50,
		OnResponse: func(req Request, resp Response) {
			seen = append(seen, resp)
			fns = append(fns, req.Function)
		},
	})
	if _, err := cloud.Deploy("test-az-1a", "dyn", DeployConfig{
		MemoryMB: 1024, Dynamic: true, Behavior: SleepBehavior{D: time.Second},
	}); err != nil {
		t.Fatal(err)
	}
	// 60 plain requests against a quota of 50 -> 10 throttles; then one
	// probe decline.
	for i := 0; i < 60; i++ {
		cloud.StartInvoke(Request{Account: "a", AZ: "test-az-1a", Function: "dyn"}, func(Response) {})
	}
	env.Schedule(2*time.Second, func() {
		cloud.StartInvoke(Request{
			Account: "a", AZ: "test-az-1a", Function: "dyn",
			Work: ProbeBehavior{
				Work:   WorkBehavior{Workload: workload.Sha1Hash},
				Banned: cpu.Mask(0).Add(cpu.Xeon25).Add(cpu.Xeon29).Add(cpu.Xeon30).Add(cpu.EPYC),
			},
		}, func(Response) {})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 61 {
		t.Fatalf("hook saw %d responses, want 61", len(seen))
	}
	okCount, throttled, declined := 0, 0, 0
	for _, r := range seen {
		switch {
		case errors.Is(r.Err, ErrThrottled):
			throttled++
		case r.OK():
			if out, isProbe := r.Value.(ProbeOutcome); isProbe && !out.Ran {
				declined++
			} else {
				okCount++
			}
		}
	}
	if okCount != 50 || throttled != 10 || declined != 1 {
		t.Fatalf("ok/throttled/declined = %d/%d/%d", okCount, throttled, declined)
	}
	for _, fn := range fns {
		if fn != "dyn" {
			t.Fatalf("hook saw request for %q", fn)
		}
	}
}
