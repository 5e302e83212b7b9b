package cloudsim

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

var testEpoch = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

// testWorld builds a single-region, single-AZ cloud for mechanism tests.
func testWorld(t *testing.T, azSpec AZSpec, opts Options) (*sim.Env, *Cloud) {
	t.Helper()
	env := sim.NewEnv(testEpoch)
	catalog := []RegionSpec{{
		Provider: AWS,
		Name:     "test-region",
		Loc:      geo.Coord{Lat: 40, Lon: -80},
		AZs:      []AZSpec{azSpec},
	}}
	if opts.HorizonDays == 0 {
		opts.HorizonDays = 1
	}
	return env, New(env, 42, catalog, opts)
}

func plainAZ(pool int) AZSpec {
	return AZSpec{
		Name:    "test-az-1a",
		PoolFIs: pool,
		Mix:     mix(0.5, 0.2, 0.25, 0.05),
	}
}

func deploySleep(t *testing.T, c *Cloud, name string, d time.Duration) {
	t.Helper()
	if _, err := c.Deploy("test-az-1a", name, DeployConfig{
		MemoryMB: 2048,
		Behavior: SleepBehavior{D: d},
	}); err != nil {
		t.Fatal(err)
	}
}

// invoke sends req and blocks p until its response is back: the blocking
// form of StartInvoke.
func invoke(p *sim.Proc, c *Cloud, req Request) Response {
	ev := sim.NewEvent(p.Env())
	c.StartInvoke(req, func(resp Response) { ev.Trigger(resp) })
	return p.Wait(ev).(Response)
}

func TestInvokeSleepBasics(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{})
	deploySleep(t, c, "fn", 250*time.Millisecond)
	var resp Response
	env.Go("client", func(p *sim.Proc) error {
		resp = invoke(p, c, Request{Account: "acct", AZ: "test-az-1a", Function: "fn"})
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !resp.OK() {
		t.Fatalf("invoke failed: %v", resp.Err)
	}
	if !resp.Cold {
		t.Error("first invocation should cold start")
	}
	if resp.BilledMS < 250 || resp.BilledMS > 300 {
		t.Errorf("billed %v ms, want ~250", resp.BilledMS)
	}
	if resp.Profile.Instance != 1 || resp.Host == "" {
		t.Errorf("instance %d on host %q, want the zone's first instance on a named host", resp.Profile.Instance, resp.Host)
	}
	if !resp.CPU.Valid() {
		t.Errorf("invalid CPU kind %v", resp.CPU)
	}
	if resp.Profile.UUID != "" || resp.Profile.VMID != resp.Host || resp.Profile.Kind != resp.CPU {
		t.Error("profile inconsistent with response")
	}
	if resp.CostUSD <= 0 {
		t.Error("no cost recorded")
	}
	if got := c.Meter().TotalPrefix("acct", ""); math.Abs(got-resp.CostUSD) > 1e-12 {
		t.Errorf("meter %v != response cost %v", got, resp.CostUSD)
	}
}

// TestInstanceIDSpellsZoneAndNumber: an instance's name, which nothing
// stores, is "fi-<zone>-<n>" for the zone's n'th instance.
func TestInstanceIDSpellsZoneAndNumber(t *testing.T) {
	_, c := testWorld(t, plainAZ(1024), Options{})
	deploySleep(t, c, "fn", time.Millisecond)
	az, _ := c.AZ("test-az-1a")
	for i, want := range []string{"fi-test-az-1a-1", "fi-test-az-1a-2"} {
		fi, cold, err := az.acquireFI(az.deployments["fn"])
		if err != nil || !cold {
			t.Fatalf("instance %d: cold %v, %v", i+1, cold, err)
		}
		if got := fi.ID(); got != want {
			t.Errorf("instance %d is named %q, want %q", i+1, got, want)
		}
	}
}

func TestWarmReuse(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{})
	deploySleep(t, c, "fn", 10*time.Millisecond)
	var first, second Response
	env.Go("client", func(p *sim.Proc) error {
		first = invoke(p, c, Request{Account: "a", AZ: "test-az-1a", Function: "fn"})
		second = invoke(p, c, Request{Account: "a", AZ: "test-az-1a", Function: "fn"})
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !first.OK() || !second.OK() {
		t.Fatalf("errs: %v %v", first.Err, second.Err)
	}
	if second.Cold {
		t.Error("sequential invocation did not reuse the warm instance")
	}
	if first.Profile.Instance != second.Profile.Instance {
		t.Errorf("different FIs: %d then %d", first.Profile.Instance, second.Profile.Instance)
	}
	if second.Profile.NewContainer != 0 {
		t.Error("profile still claims new container")
	}
}

func TestConcurrentRequestsUseDistinctFIs(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{})
	deploySleep(t, c, "fn", 250*time.Millisecond)
	const n = 100
	fis := make(map[int]int)
	done := 0
	for i := 0; i < n; i++ {
		c.StartInvoke(Request{Account: "a", AZ: "test-az-1a", Function: "fn"}, func(r Response) {
			if r.OK() {
				fis[r.Profile.Instance]++
			}
			done++
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("%d of %d responses arrived", done, n)
	}
	if len(fis) != n {
		t.Fatalf("%d unique FIs for %d concurrent requests", len(fis), n)
	}
}

func TestKeepAliveExpiry(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{KeepAlive: 5 * time.Minute})
	deploySleep(t, c, "fn", 10*time.Millisecond)
	az, _ := c.AZ("test-az-1a")
	env.Go("client", func(p *sim.Proc) error {
		r := invoke(p, c, Request{Account: "a", AZ: "test-az-1a", Function: "fn"})
		if !r.OK() {
			t.Errorf("invoke: %v", r.Err)
		}
		if az.LiveFIs() != 1 {
			t.Errorf("live FIs after invoke = %d", az.LiveFIs())
		}
		// Within keep-alive the instance persists...
		p.Sleep(4 * time.Minute)
		if az.LiveFIs() != 1 {
			t.Errorf("live FIs at 4min = %d, want 1", az.LiveFIs())
		}
		// ...and a new request reuses it, extending the window.
		r2 := invoke(p, c, Request{Account: "a", AZ: "test-az-1a", Function: "fn"})
		if r2.Cold {
			t.Error("reuse within keep-alive cold-started")
		}
		p.Sleep(4 * time.Minute)
		if az.LiveFIs() != 1 {
			t.Errorf("live FIs 4min after reuse = %d, want 1 (window extended)", az.LiveFIs())
		}
		p.Sleep(2 * time.Minute)
		if az.LiveFIs() != 0 {
			t.Errorf("live FIs after expiry = %d, want 0", az.LiveFIs())
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleInstancesShareOneQueueEntry: 1,000 instances going idle in one
// zone arm 1,000 keep-alive timers, which the cloud's keep-alive lane holds as
// one event-queue entry, and each still reaps its instance on time.
func TestIdleInstancesShareOneQueueEntry(t *testing.T) {
	env, c := testWorld(t, plainAZ(2048), Options{KeepAlive: 5 * time.Minute})
	deploySleep(t, c, "fn", 100*time.Millisecond)
	az, _ := c.AZ("test-az-1a")
	before := env.Pending() // the drift timeline
	ok := 0
	for i := 0; i < 1000; i++ {
		c.StartInvoke(Request{Account: "a", AZ: "test-az-1a", Function: "fn"}, func(r Response) {
			if r.OK() {
				ok++
			}
		})
	}
	if err := env.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ok != 1000 || az.WarmIdle("fn") != 1000 {
		t.Fatalf("%d of 1,000 invocations succeeded, %d instances idle", ok, az.WarmIdle("fn"))
	}
	if got := env.Pending() - before; got != 1 {
		t.Fatalf("1,000 idle instances add %d event-queue entries, want 1", got)
	}
	if err := env.RunFor(4*time.Minute + time.Second); err != nil {
		t.Fatal(err)
	}
	if az.LiveFIs() != 0 || env.Pending() != before {
		t.Fatalf("after the keep-alive: %d instances live, %d queue entries (want 0, %d)", az.LiveFIs(), env.Pending(), before)
	}
}

func TestSaturationWhenPoolExhausted(t *testing.T) {
	// Pool of 128 slots (1 host), sleep long enough that requests overlap.
	env, c := testWorld(t, plainAZ(128), Options{})
	deploySleep(t, c, "fn", time.Second)
	okCount, satCount := 0, 0
	for i := 0; i < 200; i++ {
		c.StartInvoke(Request{Account: "a", AZ: "test-az-1a", Function: "fn"}, func(r Response) {
			switch {
			case r.OK():
				okCount++
			case errors.Is(r.Err, ErrSaturated):
				satCount++
			default:
				t.Errorf("unexpected error: %v", r.Err)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if okCount != 128 {
		t.Errorf("ok = %d, want 128 (pool capacity)", okCount)
	}
	if satCount != 72 {
		t.Errorf("saturated = %d, want 72", satCount)
	}
}

func TestQuotaThrottling(t *testing.T) {
	env, c := testWorld(t, plainAZ(4096), Options{Quota: 50})
	deploySleep(t, c, "fn", time.Second)
	var okCount, throttled int
	for i := 0; i < 80; i++ {
		c.StartInvoke(Request{Account: "acct", AZ: "test-az-1a", Function: "fn"}, func(r Response) {
			switch {
			case r.OK():
				okCount++
			case errors.Is(r.Err, ErrThrottled):
				throttled++
			default:
				t.Errorf("unexpected error: %v", r.Err)
			}
		})
	}
	// A second account has its own quota.
	var otherOK int
	for i := 0; i < 40; i++ {
		c.StartInvoke(Request{Account: "other", AZ: "test-az-1a", Function: "fn"}, func(r Response) {
			if r.OK() {
				otherOK++
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if okCount != 50 || throttled != 30 {
		t.Errorf("ok/throttled = %d/%d, want 50/30", okCount, throttled)
	}
	if otherOK != 40 {
		t.Errorf("second account ok = %d, want 40 (independent quota)", otherOK)
	}
}

func TestSharedPoolAcrossAccounts(t *testing.T) {
	// The pool is an AZ property: when account A saturates the zone,
	// account B fails immediately — the paper's two-account validation.
	env, c := testWorld(t, plainAZ(128), Options{})
	deploySleep(t, c, "fa", time.Second)
	deploySleep(t, c, "fb", time.Second)
	var aOK int
	for i := 0; i < 128; i++ {
		c.StartInvoke(Request{Account: "acct-a", AZ: "test-az-1a", Function: "fa"}, func(r Response) {
			if r.OK() {
				aOK++
			}
		})
	}
	var bSaturated int
	env.Schedule(100*time.Millisecond, func() {
		for i := 0; i < 50; i++ {
			c.StartInvoke(Request{Account: "acct-b", AZ: "test-az-1a", Function: "fb"}, func(r Response) {
				if errors.Is(r.Err, ErrSaturated) {
					bSaturated++
				}
			})
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if aOK != 128 {
		t.Errorf("first account ok = %d", aOK)
	}
	if bSaturated != 50 {
		t.Errorf("second account saturated = %d, want all 50", bSaturated)
	}
}

func TestWorkloadRuntimeFollowsCPUFactor(t *testing.T) {
	// Single-kind pools let us compare runtimes across CPU kinds.
	runtimeOn := func(kind cpu.Kind) float64 {
		env := sim.NewEnv(testEpoch)
		catalog := []RegionSpec{{
			Provider: AWS, Name: "r", Loc: geo.Coord{},
			AZs: []AZSpec{{
				Name: "r-az", PoolFIs: 512,
				Mix: map[cpu.Kind]float64{kind: 1},
			}},
		}}
		c := New(env, 7, catalog, Options{HorizonDays: 1})
		if _, err := c.Deploy("r-az", "fn", DeployConfig{
			MemoryMB: 4096,
			Behavior: WorkBehavior{Workload: workload.MathService},
		}); err != nil {
			t.Fatal(err)
		}
		var total float64
		n := 40
		gotN := 0
		env.Go("client", func(p *sim.Proc) error {
			for i := 0; i < n; i++ {
				r := invoke(p, c, Request{Account: "a", AZ: "r-az", Function: "fn"})
				if !r.OK() {
					t.Errorf("invoke on %v: %v", kind, r.Err)
					continue
				}
				total += r.BilledMS
				gotN++
			}
			return nil
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return total / float64(gotN)
	}
	base := runtimeOn(cpu.Xeon25)
	fast := runtimeOn(cpu.Xeon30)
	slow := runtimeOn(cpu.EPYC)
	spec, _ := workload.Get(workload.MathService)
	if ratio := fast / base; math.Abs(ratio-spec.CPUFactor(cpu.Xeon30)) > 0.05 {
		t.Errorf("3.0GHz/baseline ratio = %.3f, want ~%.3f", ratio, spec.CPUFactor(cpu.Xeon30))
	}
	if ratio := slow / base; math.Abs(ratio-spec.CPUFactor(cpu.EPYC)) > 0.08 {
		t.Errorf("EPYC/baseline ratio = %.3f, want ~%.3f", ratio, spec.CPUFactor(cpu.EPYC))
	}
}

func TestMemoryStarvedDeploymentRunsSlower(t *testing.T) {
	env, c := testWorld(t, AZSpec{Name: "test-az-1a", PoolFIs: 512, Mix: mix(1, 0, 0, 0)}, Options{})
	for name, mem := range map[string]int{"big": 8192, "small": 512} {
		if _, err := c.Deploy("test-az-1a", name, DeployConfig{
			MemoryMB: mem,
			Behavior: WorkBehavior{Workload: workload.MatrixMultiply},
		}); err != nil {
			t.Fatal(err)
		}
	}
	avg := map[string]float64{}
	env.Go("client", func(p *sim.Proc) error {
		for _, name := range []string{"big", "small"} {
			var sum float64
			for i := 0; i < 20; i++ {
				r := invoke(p, c, Request{Account: "a", AZ: "test-az-1a", Function: name})
				if !r.OK() {
					t.Errorf("%s: %v", name, r.Err)
				}
				sum += r.BilledMS
			}
			avg[name] = sum / 20
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if avg["small"] < 2*avg["big"] {
		t.Errorf("512MB avg %.0fms not much slower than 8GB avg %.0fms", avg["small"], avg["big"])
	}
}

func TestDynamicWorkOverride(t *testing.T) {
	env, c := testWorld(t, plainAZ(512), Options{})
	if _, err := c.Deploy("test-az-1a", "dyn", DeployConfig{
		MemoryMB: 2048,
		Dynamic:  true,
		Behavior: SleepBehavior{D: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	deploySleep(t, c, "static", time.Millisecond)
	var dynResp, staticResp Response
	env.Go("client", func(p *sim.Proc) error {
		dynResp = invoke(p, c, Request{
			Account: "a", AZ: "test-az-1a", Function: "dyn",
			Work: WorkBehavior{Workload: workload.Sha1Hash},
		})
		staticResp = invoke(p, c, Request{
			Account: "a", AZ: "test-az-1a", Function: "static",
			Work: WorkBehavior{Workload: workload.Sha1Hash},
		})
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !dynResp.OK() {
		t.Fatalf("dynamic override failed: %v", dynResp.Err)
	}
	if dynResp.BilledMS < 100 {
		t.Errorf("override ignored: billed %.1fms", dynResp.BilledMS)
	}
	if staticResp.OK() || !errors.Is(staticResp.Err, ErrBadRequest) {
		t.Errorf("override on non-dynamic deployment: err = %v, want ErrBadRequest", staticResp.Err)
	}
}

func TestPayloadCacheFlag(t *testing.T) {
	env, c := testWorld(t, plainAZ(512), Options{})
	deploySleepDyn := func() {
		if _, err := c.Deploy("test-az-1a", "dyn", DeployConfig{
			MemoryMB: 2048, Dynamic: true, Behavior: SleepBehavior{D: time.Millisecond},
		}); err != nil {
			t.Fatal(err)
		}
	}
	deploySleepDyn()
	var r1, r2, r3 Response
	env.Go("client", func(p *sim.Proc) error {
		req := Request{Account: "a", AZ: "test-az-1a", Function: "dyn", PayloadHash: "h1"}
		r1 = invoke(p, c, req)
		r2 = invoke(p, c, req)
		req.PayloadHash = "h2"
		r3 = invoke(p, c, req)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if r1.PayloadCached {
		t.Error("first request reported cached payload")
	}
	if !r2.PayloadCached {
		t.Error("second request on same FI+hash not cached")
	}
	if r3.PayloadCached {
		t.Error("different hash reported cached")
	}
}

// funcNode is a FanOutBehavior whose steps are funcs, so each test spells
// out its node inline.
type funcNode struct {
	FanOutMark
	n      int
	hold   time.Duration
	child  func(i int) Request
	gather func(i int, r *Response)
	result func() any
}

func (f *funcNode) Children() int             { return f.n }
func (f *funcNode) Hold() time.Duration       { return f.hold }
func (f *funcNode) Child(i int) Request       { return f.child(i) }
func (f *funcNode) Gather(i int, r *Response) { f.gather(i, r) }
func (f *funcNode) Result() any               { return f.result() }

func TestFanOutBehaviorNestedInvoke(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{})
	deploySleep(t, c, "leaf", 50*time.Millisecond)
	oks := 0
	if _, err := c.Deploy("test-az-1a", "parent", DeployConfig{
		MemoryMB: 2048,
		Behavior: &funcNode{
			n:     3,
			child: func(int) Request { return Request{AZ: "test-az-1a", Function: "leaf"} },
			gather: func(_ int, r *Response) {
				if r.OK() {
					oks++
				}
			},
			result: func() any { return oks },
		},
	}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	env.Go("client", func(p *sim.Proc) error {
		resp = invoke(p, c, Request{Account: "a", AZ: "test-az-1a", Function: "parent"})
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !resp.OK() {
		t.Fatalf("parent failed: %v", resp.Err)
	}
	if got, ok := resp.Value.(int); !ok || got != 3 {
		t.Fatalf("parent value = %v, want 3 successful children", resp.Value)
	}
	// Parent billed duration covers the children (they ran in parallel,
	// each with its own cold start), not three sleeps in sequence plus
	// three cold starts.
	if resp.BilledMS < 50 || resp.BilledMS > 400 {
		t.Errorf("parent billed %.1fms, want ~50-400 (parallel children)", resp.BilledMS)
	}
}

// TestFanOutBehaviorGather drives one fan-out node per row and checks the
// contract the sampler's tree rests on: children are gathered in child
// order whatever order they answer in, rejected children included; the
// node ends at the later of its hold's end and the delivery of the last
// child it had to wait for; the bill covers the hold; and Value is the
// result func's.
func TestFanOutBehaviorGather(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name  string
		hold  time.Duration
		kids  []string // child i invokes kids[i]
		sleep map[string]time.Duration
	}{
		{
			name:  "children delivered before the hold ends",
			hold:  2 * time.Second,
			kids:  []string{"k0", "k1", "k2"},
			sleep: map[string]time.Duration{"k0": 300 * ms, "k1": 100 * ms, "k2": 200 * ms},
		},
		{
			name:  "children delivered after the hold ends",
			hold:  10 * ms,
			kids:  []string{"k0", "k1", "k2", "k3"},
			sleep: map[string]time.Duration{"k0": 400 * ms, "k1": 100 * ms, "k2": 700 * ms, "k3": 50 * ms},
		},
		{
			name:  "rejected child",
			hold:  100 * ms,
			kids:  []string{"k0", "ghost", "k2"},
			sleep: map[string]time.Duration{"k0": 500 * ms, "k2": 50 * ms},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var env *sim.Env
			delivered := make(map[string]time.Time)
			env, c := testWorld(t, plainAZ(1024), Options{OnResponse: func(req Request, _ Response) {
				delivered[req.Function] = env.Now()
			}})
			for name, d := range tc.sleep {
				deploySleep(t, c, name, d)
			}
			var order []int
			var gotErr []error
			if _, err := c.Deploy("test-az-1a", "node", DeployConfig{
				MemoryMB: 2048,
				Behavior: &funcNode{
					n:     len(tc.kids),
					child: func(i int) Request { return Request{AZ: "test-az-1a", Function: tc.kids[i]} },
					hold:  tc.hold,
					gather: func(i int, r *Response) {
						order = append(order, i)
						gotErr = append(gotErr, r.Err)
						if want, ok := tc.sleep[tc.kids[i]]; ok && r.OK() && r.Ended.Sub(r.Started) != want {
							t.Errorf("child %d: gathered a response that ran %v, child %d sleeps %v", i, r.Ended.Sub(r.Started), i, want)
						}
					},
					result: func() any { return "gathered" },
				},
			}); err != nil {
				t.Fatal(err)
			}
			var resp Response
			env.Go("client", func(p *sim.Proc) error {
				resp = invoke(p, c, Request{Account: "a", AZ: "test-az-1a", Function: "node"})
				return nil
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if !resp.OK() || resp.Value != "gathered" {
				t.Fatalf("node response: err %v, value %v", resp.Err, resp.Value)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("gather order %v, want child order", order)
				}
			}
			if len(order) != len(tc.kids) {
				t.Fatalf("gathered %d of %d children", len(order), len(tc.kids))
			}
			for i, name := range tc.kids {
				_, deployed := tc.sleep[name]
				if rejected := errors.Is(gotErr[i], ErrNoSuchDeployment); rejected == deployed {
					t.Errorf("child %d (%s): gathered error %v", i, name, gotErr[i])
				}
			}
			end := resp.Started.Add(tc.hold)
			for _, name := range tc.kids {
				if at := delivered[name]; at.After(end) {
					end = at
				}
			}
			if !resp.Ended.Equal(end) {
				t.Errorf("node ended at +%v, want +%v (hold end or last delivery)", resp.Ended.Sub(resp.Started), end.Sub(resp.Started))
			}
			holdMS := float64(tc.hold) / float64(time.Millisecond)
			if resp.BilledMS < holdMS+overheadMS {
				t.Errorf("billed %.1f ms, want at least the %.0f ms hold plus overhead", resp.BilledMS, holdMS)
			}
		})
	}
}

// foreignBehavior is a Behavior the cloud has no case for.
type foreignBehavior struct{}

func (foreignBehavior) isBehavior() {}

func TestInvokeErrors(t *testing.T) {
	env, c := testWorld(t, plainAZ(512), Options{})
	for name, b := range map[string]Behavior{"bare": nil, "foreign": foreignBehavior{}} {
		if _, err := c.Deploy("test-az-1a", name, DeployConfig{MemoryMB: 1024, Behavior: b}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"unknown zone", Request{AZ: "nope", Function: "fn"}, ErrNoSuchDeployment},
		{"unknown function", Request{AZ: "test-az-1a", Function: "ghost"}, ErrNoSuchDeployment},
		{"no behavior", Request{AZ: "test-az-1a", Function: "bare"}, ErrBadRequest},
		{"unknown behavior", Request{AZ: "test-az-1a", Function: "foreign"}, ErrBadRequest},
	}
	got := make([]Response, len(cases))
	env.Go("client", func(p *sim.Proc) error {
		for i, tc := range cases {
			tc.req.Account = "a"
			got[i] = invoke(p, c, tc.req)
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, tc := range cases {
		if !errors.Is(got[i].Err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, got[i].Err, tc.want)
		}
	}
}

func TestDeployValidation(t *testing.T) {
	_, c := testWorld(t, plainAZ(512), Options{})
	if _, err := c.Deploy("test-az-1a", "fn", DeployConfig{MemoryMB: 2048, Behavior: SleepBehavior{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("test-az-1a", "fn", DeployConfig{MemoryMB: 2048, Behavior: SleepBehavior{}}); !errors.Is(err, ErrDeploymentExists) {
		t.Errorf("duplicate deploy: err = %v, want ErrDeploymentExists", err)
	}
	if _, err := c.Deploy("test-az-1a", "bad", DeployConfig{Behavior: SleepBehavior{}}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("zero-memory deploy: err = %v, want ErrBadRequest", err)
	}
	if _, err := c.Deploy("ghost-az", "fn", DeployConfig{MemoryMB: 128, Behavior: SleepBehavior{}}); !errors.Is(err, ErrNoSuchAZ) {
		t.Errorf("deploy to unknown AZ: err = %v, want ErrNoSuchAZ", err)
	}
}

func TestBillingGranularityAndRates(t *testing.T) {
	p := PriceModel{PerGBSecond: 0.0000166667, PerRequest: 0.0000002, GranularityMS: 1}
	// 2GB for exactly 1 second.
	got := p.Cost(2048, 1000)
	want := 2*0.0000166667 + 0.0000002
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("cost = %.10f, want %.10f", got, want)
	}
	// Rounding up to the next millisecond.
	if a, b := p.Cost(1024, 100.2), p.Cost(1024, 101); a != b {
		t.Errorf("100.2ms billed %.12f != 101ms billed %.12f", a, b)
	}
	if p.Cost(1024, 0) != p.PerRequest {
		t.Error("zero-duration cost should be the request fee")
	}
	if p.Cost(1024, -5) != p.PerRequest {
		t.Error("negative duration not clamped")
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.ChargeIn("a", "", 0.5)
	m.ChargeIn("a", "", 0.25)
	m.ChargeIn("b", "", 1)
	if got := m.TotalPrefix("a", ""); got != 0.75 {
		t.Errorf("a: %v", got)
	}
	if m.GrandTotal() != 1.75 {
		t.Errorf("grand total %v", m.GrandTotal())
	}
	if m.String() == "" {
		t.Error("empty String")
	}
}

// TestMeterCell checks that a cell and ChargeIn share one accumulator: an
// empty cell adds nothing, and a cell's charges sum into its bucket beside
// ChargeIn's.
func TestMeterCell(t *testing.T) {
	m := NewMeter()
	empty := m.cell("idle", "r1")
	if m.TotalPrefix("idle", "") != 0 || m.GrandTotal() != 0 {
		t.Fatalf("an empty cell shows spend: %v", m.TotalPrefix("idle", ""))
	}
	cell := m.cell("a", "warmpool/r1")
	cell.charge(0.5)
	m.ChargeIn("a", "warmpool/r1", 0.25)
	m.ChargeIn("a", "r1", 1)
	if m.cell("a", "warmpool/r1") != cell || empty == cell {
		t.Fatal("cell does not resolve a pair to one accumulator")
	}
	if m.TotalPrefix("a", "") != 1.75 || m.TotalPrefix("a", "warmpool/") != 0.75 {
		t.Errorf("a: total %v, warm-pool %v", m.TotalPrefix("a", ""), m.TotalPrefix("a", "warmpool/"))
	}
}

func TestDefaultCatalogShape(t *testing.T) {
	catalog := DefaultCatalog()
	if len(catalog) != 41 {
		t.Fatalf("catalog has %d regions, paper spans 41", len(catalog))
	}
	counts := map[Provider]int{}
	names := map[string]bool{}
	azNames := map[string]bool{}
	for _, r := range catalog {
		counts[r.Provider]++
		if names[r.Name] {
			t.Errorf("duplicate region %s", r.Name)
		}
		names[r.Name] = true
		if len(r.AZs) == 0 {
			t.Errorf("region %s has no AZs", r.Name)
		}
		for _, az := range r.AZs {
			if azNames[az.Name] {
				t.Errorf("duplicate AZ %s", az.Name)
			}
			azNames[az.Name] = true
			if az.PoolFIs <= 0 {
				t.Errorf("AZ %s: empty pool", az.Name)
			}
			if len(az.Mix) == 0 {
				t.Errorf("AZ %s: empty mix", az.Name)
			}
		}
	}
	if counts[AWS] != 29 || counts[IBM] != 8 || counts[DO] != 4 {
		t.Errorf("provider split = %v, want AWS:29 IBM:8 DO:4", counts)
	}
}

func TestCatalogPaperFacts(t *testing.T) {
	catalog := DefaultCatalog()
	byAZ := map[string]AZSpec{}
	for _, r := range catalog {
		for _, az := range r.AZs {
			byAZ[az.Name] = az
		}
	}
	// Every AWS region hosts the 2.5 GHz Xeon; all but af-south-1 host the
	// 3.0 GHz.
	// The paper states these facts at region granularity.
	for _, r := range catalog {
		if r.Provider != AWS {
			continue
		}
		has30 := false
		for _, az := range r.AZs {
			if az.Mix[cpu.Xeon25] <= 0 {
				t.Errorf("%s: missing 2.5GHz Xeon", az.Name)
			}
			if az.Mix[cpu.Xeon30] > 0 {
				has30 = true
			}
		}
		if r.Name == "af-south-1" && has30 {
			t.Errorf("af-south-1 should not host the 3.0GHz Xeon")
		}
		if r.Name != "af-south-1" && !has30 {
			t.Errorf("region %s: missing 3.0GHz Xeon", r.Name)
		}
	}
	// us-east-2a is all-2.5GHz; us-west-2 is 3.0-dominant; il-central-1
	// has the largest EPYC share.
	if m := byAZ["us-east-2a"].Mix; len(m) != 1 || m[cpu.Xeon25] != 1 {
		t.Errorf("us-east-2a mix = %v, want pure 2.5GHz", m)
	}
	if m := byAZ["us-west-2a"].Mix; m[cpu.Xeon30] <= m[cpu.Xeon25] {
		t.Errorf("us-west-2a: 3.0GHz share %v not dominant over %v", m[cpu.Xeon30], m[cpu.Xeon25])
	}
	ilEpyc := byAZ["il-central-1a"].Mix[cpu.EPYC]
	for name, spec := range byAZ {
		if name == "il-central-1a" {
			continue
		}
		if spec.Mix[cpu.EPYC] > ilEpyc {
			t.Errorf("%s EPYC share %v exceeds il-central-1a's %v", name, spec.Mix[cpu.EPYC], ilEpyc)
		}
	}
	// EX-3/EX-4 zones exist.
	for _, name := range []string{
		"ca-central-1a", "eu-north-1a", "ap-northeast-1a", "sa-east-1a",
		"eu-central-1a", "ap-southeast-2a", "us-west-1a", "us-west-1b",
		"us-east-2a", "us-east-2b", "us-east-2c",
	} {
		if _, ok := byAZ[name]; !ok {
			t.Errorf("EX-3 zone %s missing from catalog", name)
		}
	}
	// Capacity relationships from EX-3.
	if byAZ["eu-central-1a"].PoolFIs < 8*byAZ["eu-north-1a"].PoolFIs {
		t.Error("eu-central-1a should sustain ~10x eu-north-1a's calls")
	}
	// Temporal classes from EX-4.
	for _, stable := range []string{"sa-east-1a", "eu-north-1a"} {
		if byAZ[stable].DailyDrift > 0.05 {
			t.Errorf("%s should be temporally stable", stable)
		}
	}
	for _, volatile := range []string{"ca-central-1a", "us-west-1a", "us-west-1b"} {
		if byAZ[volatile].DailyDrift < 0.2 {
			t.Errorf("%s should be volatile", volatile)
		}
	}
	if byAZ["us-west-1b"].HourlyDrift <= 0 {
		t.Error("us-west-1b needs hourly churn for Fig. 8")
	}
}

func TestTrueMixMatchesSpecApproximately(t *testing.T) {
	_, c := testWorld(t, plainAZ(20000), Options{})
	az, _ := c.AZ("test-az-1a")
	truth := az.TrueMix()
	for kind, want := range normalizeMix(plainAZ(0).Mix) {
		got := truth[kind]
		if math.Abs(got-want) > 0.12 {
			t.Errorf("%v share = %.3f, want ~%.3f", kind, got, want)
		}
	}
}

func TestDriftChangesVolatileZoneOnly(t *testing.T) {
	mixDist := func(a, b map[cpu.Kind]float64) float64 {
		var d float64
		for _, k := range cpu.Kinds() {
			d += math.Abs(a[k] - b[k])
		}
		return d / 2
	}
	run := func(daily, walk float64) float64 {
		env := sim.NewEnv(testEpoch)
		spec := plainAZ(20000)
		spec.DailyDrift = daily
		spec.MixWalk = walk
		catalog := []RegionSpec{{Provider: AWS, Name: "r", AZs: []AZSpec{spec}}}
		c := New(env, 99, catalog, Options{HorizonDays: 10})
		az, _ := c.AZ("test-az-1a")
		day0 := az.TrueMix()
		if err := env.RunFor(10 * 24 * time.Hour); err != nil {
			t.Fatal(err)
		}
		return mixDist(day0, az.TrueMix())
	}
	stable := run(stableDrift, stableWalk)
	volatile := run(volatileDrift, volatileWalk)
	if stable > 0.10 {
		t.Errorf("stable zone drifted %.3f over 10 days, want <= 0.10", stable)
	}
	if volatile < stable {
		t.Errorf("volatile drift %.3f not above stable %.3f", volatile, stable)
	}
	if volatile < 0.08 {
		t.Errorf("volatile zone drifted only %.3f over 10 days", volatile)
	}
}

func TestContentionDiurnal(t *testing.T) {
	env, c := testWorld(t, AZSpec{
		Name: "test-az-1a", PoolFIs: 512, Mix: mix(1, 0, 0, 0),
		ContentionAmp: 0.10, PeakHourUTC: 14,
	}, Options{})
	_ = env
	az, _ := c.AZ("test-az-1a")
	peak := az.contention(time.Date(2026, 3, 1, 14, 0, 0, 0, time.UTC))
	trough := az.contention(time.Date(2026, 3, 1, 2, 0, 0, 0, time.UTC))
	if math.Abs(peak-1.10) > 1e-9 {
		t.Errorf("peak contention = %v, want 1.10", peak)
	}
	if math.Abs(trough-1.0) > 1e-9 {
		t.Errorf("trough contention = %v, want 1.0", trough)
	}
}

func TestScaleUpAddsReserveHosts(t *testing.T) {
	env, c := testWorld(t, AZSpec{
		Name: "test-az-1a", PoolFIs: 128,
		Mix:         mix(1, 0, 0, 0),
		ReserveMix:  mix(0, 0, 0, 1),
		ReserveFrac: 1, // double the pool on scale-up, all EPYC
	}, Options{})
	deploySleep(t, c, "fn", 30*time.Second)
	az, _ := c.AZ("test-az-1a")
	before := az.HostCount()
	// Exhaust and keep pushing.
	for i := 0; i < 130; i++ {
		c.StartInvoke(Request{Account: "a", AZ: "test-az-1a", Function: "fn"}, func(Response) {})
	}
	sawEpyc := false
	env.Schedule(scaleUpDelay+10*time.Second, func() {
		if az.HostCount() <= before {
			t.Errorf("no scale-up: hosts %d -> %d", before, az.HostCount())
		}
		if az.TrueMix()[cpu.EPYC] <= 0 {
			t.Error("reserve hosts did not introduce unseen hardware")
		} else {
			sawEpyc = true
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawEpyc {
		t.Error("scale-up check did not run")
	}
}

func TestArmDeploymentsLandOnGraviton(t *testing.T) {
	env, c := testWorld(t, AZSpec{
		Name: "test-az-1a", PoolFIs: 512, ArmPoolFIs: 256, Mix: mix(1, 0, 0, 0),
	}, Options{})
	if _, err := c.Deploy("test-az-1a", "armfn", DeployConfig{
		MemoryMB: 2048, Arch: cpu.ARM, Behavior: SleepBehavior{D: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	env.Go("client", func(p *sim.Proc) error {
		resp = invoke(p, c, Request{Account: "a", AZ: "test-az-1a", Function: "armfn"})
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !resp.OK() {
		t.Fatal(resp.Err)
	}
	if resp.CPU != cpu.Graviton {
		t.Errorf("arm deployment ran on %v", resp.CPU)
	}
}

func TestPlacementClustersButCanSpread(t *testing.T) {
	// Statistical packing: a 256-request poll on a 32-host zone should
	// cluster well below uniform spread (256/32 = 8 per host uniformly)
	// yet touch more than one host.
	env, c := testWorld(t, plainAZ(4096), Options{})
	deploySleep(t, c, "fn", time.Second)
	hosts := map[string]int{}
	for i := 0; i < 256; i++ {
		c.StartInvoke(Request{Account: "a", AZ: "test-az-1a", Function: "fn"}, func(r Response) {
			if r.OK() {
				hosts[r.Host]++
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hosts) < 2 {
		t.Errorf("placement used %d hosts; retries could never escape a banned host", len(hosts))
	}
	if len(hosts) >= 30 {
		t.Errorf("placement spread over %d/32 hosts; no packing at all", len(hosts))
	}
	maxLoad := 0
	for _, n := range hosts {
		if n > maxLoad {
			maxLoad = n
		}
	}
	if maxLoad < 16 {
		t.Errorf("heaviest host got %d/256 placements; packing too weak", maxLoad)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		env := sim.NewEnv(testEpoch)
		catalog := []RegionSpec{{Provider: AWS, Name: "r", AZs: []AZSpec{plainAZ(2048)}}}
		c := New(env, 1234, catalog, Options{HorizonDays: 1})
		if _, err := c.Deploy("test-az-1a", "fn", DeployConfig{
			MemoryMB: 2048, Behavior: WorkBehavior{Workload: workload.Zipper},
		}); err != nil {
			t.Fatal(err)
		}
		var log []string
		env.Go("client", func(p *sim.Proc) error {
			for i := 0; i < 30; i++ {
				r := invoke(p, c, Request{Account: "a", AZ: "test-az-1a", Function: "fn"})
				log = append(log, fmt.Sprintf("%d/%s", r.Profile.Instance, r.CPU))
			}
			return nil
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}
