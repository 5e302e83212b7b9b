package cloudsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/sim"
)

// lazyHorizon is the drift horizon of the lazy-build tests: long enough for
// a first touch after several days of drift and one past the last.
const lazyHorizon = 3

// lazyTouches are the entry points through which a zone is first used. A
// request (cold invocation, throttle-storm rejection) touches its zone when
// it arrives, one way after it is sent; the others touch it when called.
var lazyTouches = []struct {
	name    string
	request bool
	touch   func(t *testing.T, c *Cloud, az *AZ)
}{
	{"cold-invocation", true, func(t *testing.T, c *Cloud, az *AZ) {
		c.StartInvoke(Request{Account: "acct", AZ: az.Name(), Function: "fn"}, func(r Response) {
			if r.Err != nil || !r.Cold {
				t.Errorf("%s: first request cold=%v err=%v, want a cold success", az.Name(), r.Cold, r.Err)
			}
		})
	}},
	{"prewarm", false, func(t *testing.T, c *Cloud, az *AZ) {
		if n, _, err := az.PreWarm("fn", 1, "acct"); n != 1 || err != nil {
			t.Errorf("%s: PreWarm provisioned %d, err %v", az.Name(), n, err)
		}
	}},
	{"drift-burst", false, func(t *testing.T, c *Cloud, az *AZ) { az.DriftBurst(0.5, 0.3) }},
	{"throttle-storm", true, func(t *testing.T, c *Cloud, az *AZ) {
		az.SetThrottleStorm(0.5)
		c.StartInvoke(Request{Account: "acct", AZ: az.Name(), Function: "fn"}, func(Response) {})
	}},
	{"true-mix", false, func(t *testing.T, c *Cloud, az *AZ) { az.TrueMix() }},
}

// lazyWorld builds the default world at seed, deploys fn in every zone,
// and, when eager, draws every zone's hosts at construction: the build the
// lazy one must match. It then touches every zone through touch at the
// instant at and runs the world to the end of its queue.
func lazyWorld(t *testing.T, seed uint64, eager bool, at time.Duration, request bool,
	touch func(*testing.T, *Cloud, *AZ)) *Cloud {
	t.Helper()
	env := sim.NewEnv(testEpoch)
	// A 2 ns round trip puts a request's arrival 1 ns after its send, so a
	// request's touch can land on a day boundary exactly.
	c := New(env, seed, nil, Options{HorizonDays: lazyHorizon, IntraCloudRTT: 2})
	zones := allZones(c)
	for _, az := range zones {
		if eager {
			az.ensure()
		}
		if _, err := az.deploy("fn", DeployConfig{MemoryMB: 1024, Behavior: SleepBehavior{D: 10 * time.Millisecond}}); err != nil {
			t.Fatal(err)
		}
	}
	send := at
	if request {
		send = max(0, at-c.oneWay())
	}
	env.Schedule(send, func() {
		for _, az := range zones {
			touch(t, c, az)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

func allZones(c *Cloud) []*AZ {
	var out []*AZ
	for _, r := range c.regions {
		out = append(out, r.azs...)
	}
	return out
}

// zoneState is what a zone's lazy build must reproduce: every host, the
// true and target mixes, and the next 16 draws of its stream.
type zoneState struct {
	hosts           []hostRow
	trueMix, target map[cpu.Kind]float64
	draws           [16]uint64
}

type hostRow struct {
	seq         int
	kind        cpu.Kind
	arch        cpu.Arch
	slots, used int
}

// diff names the first way s differs from eager, or returns "".
func (s zoneState) diff(eager zoneState) string {
	switch {
	case !reflect.DeepEqual(s.trueMix, eager.trueMix):
		return fmt.Sprintf("true mix %v, eager %v", s.trueMix, eager.trueMix)
	case !reflect.DeepEqual(s.target, eager.target):
		return fmt.Sprintf("target mix %v, eager %v", s.target, eager.target)
	case len(s.hosts) != len(eager.hosts):
		return fmt.Sprintf("%d hosts, eager %d", len(s.hosts), len(eager.hosts))
	case s.draws != eager.draws:
		return fmt.Sprintf("next draws %v, eager %v", s.draws, eager.draws)
	}
	for i, h := range s.hosts {
		if h != eager.hosts[i] {
			return fmt.Sprintf("host %d is %+v, eager %+v", i, h, eager.hosts[i])
		}
	}
	return ""
}

// stateOf reads az's zoneState, consuming the draws.
func stateOf(az *AZ) zoneState {
	s := zoneState{trueMix: az.TrueMix(), target: az.targetMix}
	for _, pool := range [][]*Host{az.hosts, az.armHosts} {
		for _, h := range pool {
			s.hosts = append(s.hosts, hostRow{h.seq, h.kind, h.arch, h.slots, h.used})
		}
	}
	for i := range s.draws {
		s.draws[i] = az.rand.Uint64()
	}
	return s
}

// TestLazyZoneMatchesEager pins the lazy zone build against the eager one:
// over five seeds and every zone of the default catalog, a zone first used
// at the start, mid-day, 1 ns before a day boundary, exactly on it, or
// after the last drift day, through each entry point, holds the hosts,
// mixes and stream state of the same zone in a world that drew every
// zone's hosts at construction, after the rest of the horizon has run on
// both. It fails if the replay drops a day, or if a throttle storm draws
// before the zone is built.
func TestLazyZoneMatchesEager(t *testing.T) {
	day := 24 * time.Hour
	times := []time.Duration{0, day / 2, day - 1, day, (lazyHorizon+1)*day + day/4}
	for _, seed := range []uint64{1, 5, 7, 42, 99} {
		for _, at := range times {
			for _, tc := range lazyTouches {
				lazy := lazyWorld(t, seed, false, at, tc.request, tc.touch)
				eager := lazyWorld(t, seed, true, at, tc.request, tc.touch)
				eagerZones := allZones(eager)
				for i, az := range allZones(lazy) {
					if !az.built {
						t.Fatalf("seed %d at %v via %s: %s not built by its first use", seed, at, tc.name, az.Name())
					}
					if d := stateOf(az).diff(stateOf(eagerZones[i])); d != "" {
						t.Fatalf("seed %d at %v via %s: %s differs from its eager build: %s", seed, at, tc.name, az.Name(), d)
					}
				}
			}
		}
	}
}

// azMethodHosts lists every exported *AZ method with whether it draws the
// zone's hosts (ensures) or needs none, and a call of it on a zone with fn
// deployed. TestAZMethodsClassified fails when a method is missing, so a new
// method must be classified: one that reads the hosts, the target mix or
// the zone's stream must call ensure first.
var azMethodHosts = []struct {
	name    string
	ensures bool
	call    func(az *AZ)
}{
	{"CapacityFIs", true, func(az *AZ) { az.CapacityFIs() }},
	{"DriftBurst", true, func(az *AZ) { az.DriftBurst(0.5, 0.3) }},
	{"FaultSnapshot", false, func(az *AZ) { az.FaultSnapshot() }},
	{"HostCount", true, func(az *AZ) { az.HostCount() }},
	{"LiveFIs", false, func(az *AZ) { az.LiveFIs() }},
	{"Name", false, func(az *AZ) { az.Name() }},
	{"PreWarm", true, func(az *AZ) { _, _, _ = az.PreWarm("fn", 1, "acct") }},
	{"Region", false, func(az *AZ) { az.Region() }},
	{"SetColdStartSpike", false, func(az *AZ) { az.SetColdStartSpike(3) }},
	{"SetExtraRTT", false, func(az *AZ) { az.SetExtraRTT(time.Second) }},
	{"SetOutage", false, func(az *AZ) { az.SetOutage(true) }},
	{"SetThrottleStorm", false, func(az *AZ) { az.SetThrottleStorm(0.5) }},
	{"SetWarmFloor", false, func(az *AZ) { _ = az.SetWarmFloor("fn", 2) }},
	{"Spec", false, func(az *AZ) { az.Spec() }},
	{"TrueMix", true, func(az *AZ) { az.TrueMix() }},
	{"WarmIdle", false, func(az *AZ) { az.WarmIdle("fn") }},
	{"WarmLive", false, func(az *AZ) { az.WarmLive("fn") }},
}

// TestAZMethodsClassified is the completeness guard of the lazy build:
// every exported *AZ method is in azMethodHosts, and on a fresh zone each
// one builds the zone exactly when the table says it ensures.
func TestAZMethodsClassified(t *testing.T) {
	listed := make(map[string]bool)
	for _, m := range azMethodHosts {
		listed[m.name] = true
	}
	typ := reflect.TypeOf((*AZ)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; !listed[name] {
			t.Errorf("(*AZ).%s is not in azMethodHosts: classify it as ensuring or needing no hosts", name)
		}
		delete(listed, typ.Method(i).Name)
	}
	for name := range listed {
		t.Errorf("azMethodHosts lists %s, which is not an exported *AZ method", name)
	}
	for _, m := range azMethodHosts {
		_, c := testWorld(t, plainAZ(1024), Options{})
		deploySleep(t, c, "fn", time.Millisecond)
		az, _ := c.AZ("test-az-1a")
		m.call(az)
		if az.built != m.ensures {
			t.Errorf("(*AZ).%s: zone built = %v, want %v", m.name, az.built, m.ensures)
		}
	}
}
