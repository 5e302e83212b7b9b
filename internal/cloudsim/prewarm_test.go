package cloudsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/sim"
)

// The warm-pool actuator's core contract: a pre-warmed FI is
// indistinguishable from an organically warmed one. These tests pin the
// lifecycle invariants — keep-alive reaping with idleGen validation, floor
// retention, idle-host redraw protection, and billing attribution.

func TestPreWarmServesWarmRequests(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{})
	deploySleep(t, c, "fn", 50*time.Millisecond)
	az, _ := c.AZ("test-az-1a")
	var provisioned int
	var cost float64
	env.Schedule(0, func() {
		var err error
		provisioned, cost, err = az.PreWarm("fn", 3, "acct")
		if err != nil {
			t.Errorf("PreWarm: %v", err)
		}
	})
	var resp Response
	env.Go("client", func(p *sim.Proc) error {
		p.Sleep(10 * time.Second) // initialization (~140 ms) has finished
		resp = invoke(p, c, Request{Account: "acct", AZ: "test-az-1a", Function: "fn"})
		return nil
	})
	env.Schedule(5*time.Second, func() {
		if got := az.WarmIdle("fn"); got != 3 {
			t.Errorf("warm idle = %d after init, want 3", got)
		}
		if got := az.WarmLive("fn"); got != 3 {
			t.Errorf("warm live = %d after init, want 3", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if provisioned != 3 || cost <= 0 {
		t.Fatalf("provisioned %d at $%f, want 3 at a positive cost", provisioned, cost)
	}
	if !resp.OK() {
		t.Fatalf("invoke: %v", resp.Err)
	}
	if resp.Cold {
		t.Error("request landing on a pre-warmed pool must not cold start")
	}
}

func TestPreWarmedObeyKeepAliveReaping(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{KeepAlive: time.Minute})
	deploySleep(t, c, "fn", 50*time.Millisecond)
	az, _ := c.AZ("test-az-1a")
	env.Schedule(0, func() {
		if _, _, err := az.PreWarm("fn", 4, "acct"); err != nil {
			t.Errorf("PreWarm: %v", err)
		}
	})
	// One instance is re-used just before expiry: its idleGen bump voids
	// the pending timer exactly as it does for an organically warmed FI,
	// and release re-arms from the release time.
	env.Go("client", func(p *sim.Proc) error {
		p.Sleep(55 * time.Second)
		resp := invoke(p, c, Request{Account: "acct", AZ: "test-az-1a", Function: "fn"})
		if resp.Cold {
			t.Error("reuse of a pre-warmed instance must be warm")
		}
		return nil
	})
	env.Schedule(70*time.Second, func() {
		// The three untouched instances expired one keep-alive after
		// their init completed; the reused one is still inside its
		// re-armed window.
		if got := az.WarmIdle("fn"); got != 1 {
			t.Errorf("warm idle = %d at +70s, want 1 survivor", got)
		}
		if az.LiveFIs() != 1 {
			t.Errorf("live FIs = %d at +70s, want 1", az.LiveFIs())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if az.LiveFIs() != 0 {
		t.Errorf("live FIs = %d after drain, want full reaping", az.LiveFIs())
	}
}

func TestWarmFloorHoldsThenLoweringReaps(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{KeepAlive: time.Minute})
	deploySleep(t, c, "fn", 50*time.Millisecond)
	az, _ := c.AZ("test-az-1a")
	env.Schedule(0, func() {
		if err := az.SetWarmFloor("fn", 2); err != nil {
			t.Errorf("SetWarmFloor: %v", err)
		}
		if _, _, err := az.PreWarm("fn", 5, "acct"); err != nil {
			t.Errorf("PreWarm: %v", err)
		}
		// Neither names a function that is not deployed.
		if err := az.SetWarmFloor("ghost", 2); !errors.Is(err, ErrNoSuchDeployment) {
			t.Errorf("SetWarmFloor(ghost) = %v, want ErrNoSuchDeployment", err)
		}
		if _, _, err := az.PreWarm("ghost", 1, "acct"); !errors.Is(err, ErrNoSuchDeployment) {
			t.Errorf("PreWarm(ghost) = %v, want ErrNoSuchDeployment", err)
		}
	})
	env.Schedule(90*time.Second, func() {
		if got := az.WarmIdle("fn"); got != 2 {
			t.Errorf("warm idle = %d past keep-alive, want the floor of 2", got)
		}
		// Lowering the floor re-arms the held instances; they reap one
		// keep-alive window later.
		if err := az.SetWarmFloor("fn", 0); err != nil {
			t.Errorf("SetWarmFloor: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if az.LiveFIs() != 0 {
		t.Errorf("live FIs = %d after floor cleared, want 0", az.LiveFIs())
	}
	// A floor set directly (not via StartEnsureWarm) has no paying account
	// and is never hold-billed.
	if got := c.Meter().TotalPrefix("acct", "warmpool/hold/"); got != 0 {
		t.Errorf("direct SetWarmFloor accrued hold charge %f, want 0", got)
	}
}

// TestWarmFloorHoldBilling pins the provisioned-concurrency pricing: each
// ensure-warm actuation settles the instance-seconds held above keep-alive
// by the previous floor, at the discounted GB-time rate, under the
// warmpool/hold bucket.
func TestWarmFloorHoldBilling(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{KeepAlive: time.Minute})
	deploySleep(t, c, "fn", 50*time.Millisecond)
	var first, second ProvisionResult
	env.Schedule(0, func() {
		c.StartEnsureWarm("test-az-1a", "fn", 3, 3, "acct", func(r ProvisionResult) { first = r })
	})
	env.Schedule(2*time.Minute, func() {
		c.StartEnsureWarm("test-az-1a", "fn", 3, 3, "acct", func(r ProvisionResult) { second = r })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if first.Err != nil || first.Provisioned != 3 {
		t.Fatalf("first actuation = %+v, want 3 provisioned", first)
	}
	if first.HoldUSD != 0 {
		t.Errorf("first.HoldUSD = %f, want 0 (no prior floor to settle)", first.HoldUSD)
	}
	if second.Err != nil || second.Requested != 0 {
		t.Fatalf("second actuation = %+v, want no new provisioning", second)
	}
	if second.HoldUSD <= 0 || second.CostUSD != second.HoldUSD {
		t.Fatalf("second actuation cost = %+v, want a pure hold charge", second)
	}
	hold := c.Meter().TotalPrefix("acct", "warmpool/hold/")
	if math.Abs(hold-second.HoldUSD) > 1e-12 {
		t.Errorf("hold bucket = %f, want %f", hold, second.HoldUSD)
	}
	// WarmPoolSpend rolls up initialization and hold charges together.
	if wp := c.WarmPoolSpend("acct"); math.Abs(wp-(first.CostUSD+second.CostUSD)) > 1e-12 {
		t.Errorf("WarmPoolSpend = %f, want %f", wp, first.CostUSD+second.CostUSD)
	}
}

func TestWarmHostsSurviveIdleHostRedraw(t *testing.T) {
	// A DriftBurst (and daily drift) redraws only hosts with used == 0.
	// Pre-warmed idle FIs hold their host slot, so their hosts must keep
	// their CPU while every actually-idle host is redrawn.
	env, c := testWorld(t, AZSpec{
		Name:    "test-az-1a",
		PoolFIs: 1024,
		Mix:     map[cpu.Kind]float64{cpu.Xeon25: 1},
	}, Options{KeepAlive: time.Minute})
	deploySleep(t, c, "fn", 50*time.Millisecond)
	az, _ := c.AZ("test-az-1a")
	env.Schedule(0, func() {
		if _, _, err := az.PreWarm("fn", 3, "acct"); err != nil {
			t.Errorf("PreWarm: %v", err)
		}
	})
	env.Schedule(time.Second, func() {
		warmHosts := make(map[*Host]bool)
		for _, fi := range az.deployments["fn"].idleFIs() {
			warmHosts[fi.host] = true
		}
		if len(warmHosts) == 0 {
			t.Fatal("no warm hosts to protect")
		}
		az.replaceIdleHostsFrom(1, map[cpu.Kind]float64{cpu.EPYC: 1})
		for _, h := range az.hosts {
			if warmHosts[h] && h.kind != cpu.Xeon25 {
				t.Errorf("occupied warm host %s redrawn to %v", h.ID(), h.kind)
			}
			if !warmHosts[h] && h.kind != cpu.EPYC {
				t.Errorf("idle host %s not redrawn: %v", h.ID(), h.kind)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPreWarmBilledUnderWarmPoolBucket(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{})
	deploySleep(t, c, "fn", 50*time.Millisecond)
	az, _ := c.AZ("test-az-1a")
	var cost float64
	env.Schedule(0, func() {
		_, cost, _ = az.PreWarm("fn", 2, "acct")
	})
	env.Go("client", func(p *sim.Proc) error {
		p.Sleep(10 * time.Second)
		invoke(p, c, Request{Account: "acct", AZ: "test-az-1a", Function: "fn"})
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	wp := c.WarmPoolSpend("acct")
	if math.Abs(wp-cost) > 1e-12 || wp <= 0 {
		t.Fatalf("warm-pool spend %f, want the provisioning cost %f", wp, cost)
	}
	if got := c.Meter().TotalPrefix("acct", "warmpool/"); got != wp {
		t.Fatalf("TotalPrefix = %f, want %f", got, wp)
	}
	// The account's full rollup includes both the warm-pool bucket and the
	// ordinary request charge.
	if total := c.Meter().TotalPrefix("acct", ""); total <= wp {
		t.Fatalf("total %f should exceed warm-pool spend %f by the request charge", total, wp)
	}
}

func TestStartEnsureWarm(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{KeepAlive: time.Minute})
	deploySleep(t, c, "fn", 50*time.Millisecond)
	var first, second, missing, ghost ProvisionResult
	env.Schedule(0, func() {
		c.StartEnsureWarm("test-az-1a", "fn", 4, 2, "acct", func(r ProvisionResult) { first = r })
		c.StartEnsureWarm("nowhere", "fn", 1, 0, "acct", func(r ProvisionResult) { missing = r })
		c.StartEnsureWarm("test-az-1a", "ghost", 1, 0, "acct", func(r ProvisionResult) { ghost = r })
	})
	env.Schedule(30*time.Second, func() {
		// Pool already at target: the second actuation is a no-op that
		// reports the idle pool.
		c.StartEnsureWarm("test-az-1a", "fn", 4, 2, "acct", func(r ProvisionResult) { second = r })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if first.Err != nil || first.Requested != 4 || first.Provisioned != 4 || first.Live != 4 || first.CostUSD <= 0 {
		t.Fatalf("first actuation = %+v, want 4 provisioned at a positive cost", first)
	}
	if first.Idle != 0 {
		t.Fatalf("first.Idle = %d, want 0 (instances still initializing)", first.Idle)
	}
	if second.Err != nil || second.Requested != 0 || second.Provisioned != 0 || second.Live != 4 || second.Idle != 4 {
		t.Fatalf("second actuation = %+v, want a no-op against a full idle pool", second)
	}
	if !errors.Is(missing.Err, ErrNoSuchAZ) {
		t.Fatalf("missing zone err = %v, want ErrNoSuchAZ", missing.Err)
	}
	if !errors.Is(ghost.Err, ErrNoSuchDeployment) {
		t.Fatalf("missing function err = %v, want ErrNoSuchDeployment", ghost.Err)
	}
}
