package cloudsim

import (
	"testing"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/rng"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// checkAZInvariants asserts the structural invariants of a zone's state.
func checkAZInvariants(t *testing.T, az *AZ) {
	t.Helper()
	live := 0
	for _, h := range az.hosts {
		if h.used < 0 || h.used > h.slots {
			t.Fatalf("host %s used=%d slots=%d", h.ID(), h.used, h.slots)
		}
		live += h.used
	}
	for _, h := range az.armHosts {
		if h.used < 0 || h.used > h.slots {
			t.Fatalf("arm host %s used=%d slots=%d", h.ID(), h.used, h.slots)
		}
		live += h.used
	}
	if live != az.LiveFIs() {
		t.Fatalf("liveFIs=%d but hosts hold %d", az.LiveFIs(), live)
	}
	// The true mix is a distribution.
	var sum float64
	for _, share := range az.TrueMix() {
		if share < 0 {
			t.Fatalf("negative share in true mix")
		}
		sum += share
	}
	if len(az.hosts) > 0 && (sum < 0.999 || sum > 1.001) {
		t.Fatalf("true mix sums to %v", sum)
	}
}

// TestInvariantsUnderRandomChurn drives a zone with a randomized mixture of
// sleeps, workloads, probes (declining and not), drift ticks, and saturation
// pressure, checking invariants throughout. This is the failure-injection
// sweep for the platform mechanics.
func TestInvariantsUnderRandomChurn(t *testing.T) {
	env := sim.NewEnv(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	catalog := []RegionSpec{{
		Provider: AWS, Name: "r", Loc: geo.Coord{},
		AZs: []AZSpec{{
			Name:        "r-az",
			PoolFIs:     768, // small: saturation pressure is frequent
			ArmPoolFIs:  128,
			Mix:         map[cpu.Kind]float64{cpu.Xeon25: 0.5, cpu.Xeon30: 0.3, cpu.EPYC: 0.2},
			DailyDrift:  0.5,
			MixWalk:     0.3,
			CapJitter:   0.2,
			HourlyDrift: 0.05,
			ReserveFrac: 0.2,
			ReserveMix:  map[cpu.Kind]float64{cpu.Xeon29: 1},
		}},
	}}
	cloud := New(env, 1234, catalog, Options{HorizonDays: 3, Quota: 200})
	az, _ := cloud.AZ("r-az")

	if _, err := cloud.Deploy("r-az", "sleepy", DeployConfig{
		MemoryMB: 512, Behavior: SleepBehavior{D: 400 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.Deploy("r-az", "dyn", DeployConfig{
		MemoryMB: 2048, Dynamic: true, Behavior: SleepBehavior{D: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.Deploy("r-az", "armfn", DeployConfig{
		MemoryMB: 1024, Arch: cpu.ARM, Behavior: SleepBehavior{D: 50 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}

	s := rng.New(99)
	responses := 0
	issue := func() {
		req := Request{Account: "acct", AZ: "r-az"}
		switch s.Intn(4) {
		case 0:
			req.Function = "sleepy"
		case 1:
			req.Function = "dyn"
			req.Work = WorkBehavior{Workload: workload.Sha1Hash, Scale: 0.2}
			req.PayloadHash = "h"
		case 2:
			req.Function = "dyn"
			req.Work = ProbeBehavior{
				Work:   WorkBehavior{Workload: workload.Sha1Hash, Scale: 0.2},
				Banned: maybeBan(cpu.Mask(0).Add(cpu.EPYC), cpu.Xeon25, s.Bool(0.5)),
				HoldMS: 50,
			}
		default:
			req.Function = "armfn"
		}
		cloud.StartInvoke(req, func(Response) { responses++ })
	}

	// 40 waves of up to 60 requests over ~80 virtual minutes, crossing
	// several hourly drift ticks and keep-alive expirations.
	issued := 0
	for wave := 0; wave < 40; wave++ {
		n := 1 + s.Intn(60)
		for i := 0; i < n; i++ {
			issue()
			issued++
		}
		target := time.Duration(wave+1) * 2 * time.Minute
		if err := env.RunFor(target - env.Elapsed()); err != nil {
			t.Fatal(err)
		}
		checkAZInvariants(t, az)
	}
	// Drain everything, including the keep-alive tail.
	if err := env.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkAZInvariants(t, az)
	if responses != issued {
		t.Fatalf("issued %d requests, %d responses", issued, responses)
	}
	if got := cloud.regionBy["r"].accounts["acct"].inflight; got != 0 {
		t.Fatalf("inflight after drain = %d", got)
	}
	// After the keep-alive window with no traffic, instances are reaped.
	if err := env.RunFor(6 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if az.LiveFIs() != 0 {
		t.Fatalf("live FIs after idle window = %d", az.LiveFIs())
	}
}

// TestDriftPreservesInvariants runs many drift cycles with live load and
// verifies capacity jitter and reprovisioning never corrupt the pool.
func TestDriftPreservesInvariants(t *testing.T) {
	env := sim.NewEnv(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	// The real volatile-zone personality (us-west-1*) on a realistically
	// sized pool.
	catalog := []RegionSpec{{
		Provider: AWS, Name: "r", Loc: geo.Coord{},
		AZs: []AZSpec{{
			Name: "r-az", PoolFIs: 16000,
			Mix:        map[cpu.Kind]float64{cpu.Xeon25: 0.6, cpu.Xeon30: 0.4},
			DailyDrift: 0.8, MixWalk: 0.6, CapJitter: 0.15,
		}},
	}}
	cloud := New(env, 5, catalog, Options{HorizonDays: 20})
	az, _ := cloud.AZ("r-az")
	if _, err := cloud.Deploy("r-az", "fn", DeployConfig{
		MemoryMB: 1024, Behavior: SleepBehavior{D: 30 * time.Minute}, // long-lived FIs pin hosts
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		cloud.StartInvoke(Request{Account: "a", AZ: "r-az", Function: "fn"}, func(Response) {})
	}
	for day := 1; day <= 20; day++ {
		if err := env.RunFor(24*time.Hour*time.Duration(day) - env.Elapsed()); err != nil {
			t.Fatal(err)
		}
		checkAZInvariants(t, az)
		if az.HostCount() < 1 {
			t.Fatal("pool emptied")
		}
	}
	// Mean reversion keeps the mix anchored: both kinds survive 20 days of
	// violent drift.
	truth := az.TrueMix()
	if truth[cpu.Xeon25] == 0 || truth[cpu.Xeon30] == 0 {
		t.Errorf("a CPU kind went extinct under drift: %v", truth)
	}
}

// TestProbeDeclineReleasesQuota verifies the decline path returns quota and
// capacity even though it bypasses the normal finish path.
func TestProbeDeclineReleasesQuota(t *testing.T) {
	env := sim.NewEnv(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	catalog := []RegionSpec{{
		Provider: AWS, Name: "r", Loc: geo.Coord{},
		AZs: []AZSpec{{Name: "r-az", PoolFIs: 256, Mix: map[cpu.Kind]float64{cpu.EPYC: 1}}},
	}}
	cloud := New(env, 9, catalog, Options{HorizonDays: 1, Quota: 100})
	az, _ := cloud.AZ("r-az")
	if _, err := cloud.Deploy("r-az", "dyn", DeployConfig{
		MemoryMB: 1024, Dynamic: true, Behavior: SleepBehavior{D: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	declined := 0
	for i := 0; i < 100; i++ {
		cloud.StartInvoke(Request{
			Account: "a", AZ: "r-az", Function: "dyn",
			Work: ProbeBehavior{
				Work:   WorkBehavior{Workload: workload.Sha1Hash},
				Banned: cpu.Mask(0).Add(cpu.EPYC),
			},
		}, func(r Response) {
			if r.OK() {
				if out, ok := r.Value.(ProbeOutcome); ok && !out.Ran {
					declined++
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if declined != 100 {
		t.Fatalf("declined = %d, want all 100 (pure banned zone)", declined)
	}
	if got := cloud.regionBy["r"].accounts["a"].inflight; got != 0 {
		t.Fatalf("inflight after declines = %d", got)
	}
	// Terminated-on-decline: no instances linger.
	if az.LiveFIs() != 0 {
		t.Fatalf("live FIs after declines = %d (should self-terminate)", az.LiveFIs())
	}
	checkAZInvariants(t, az)
}

// TestProbeKeepOnDecline verifies the opt-out path recycles instances.
func TestProbeKeepOnDecline(t *testing.T) {
	env := sim.NewEnv(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	catalog := []RegionSpec{{
		Provider: AWS, Name: "r", Loc: geo.Coord{},
		AZs: []AZSpec{{Name: "r-az", PoolFIs: 256, Mix: map[cpu.Kind]float64{cpu.EPYC: 1}}},
	}}
	cloud := New(env, 9, catalog, Options{HorizonDays: 1})
	az, _ := cloud.AZ("r-az")
	if _, err := cloud.Deploy("r-az", "dyn", DeployConfig{
		MemoryMB: 1024, Dynamic: true, Behavior: SleepBehavior{D: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	cloud.StartInvoke(Request{
		Account: "a", AZ: "r-az", Function: "dyn",
		Work: ProbeBehavior{
			Work:          WorkBehavior{Workload: workload.Sha1Hash},
			Banned:        cpu.Mask(0).Add(cpu.EPYC),
			KeepOnDecline: true,
		},
	}, func(Response) {})
	if err := env.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if az.LiveFIs() != 1 {
		t.Fatalf("live FIs = %d, want 1 kept warm", az.LiveFIs())
	}
}

// maybeBan adds k to m when cond holds — a branch-free literal for
// randomized ban sets in the property tests.
func maybeBan(m cpu.Mask, k cpu.Kind, cond bool) cpu.Mask {
	if cond {
		return m.Add(k)
	}
	return m
}
