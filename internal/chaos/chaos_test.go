package chaos

import (
	"errors"
	"testing"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/faas"
	"skyfaas/internal/geo"
	"skyfaas/internal/metrics"
	"skyfaas/internal/sim"
)

var testEpoch = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

func world(t *testing.T) (*sim.Env, *cloudsim.Cloud, *Injector) {
	t.Helper()
	env := sim.NewEnv(testEpoch)
	catalog := []cloudsim.RegionSpec{{
		Provider: cloudsim.AWS, Name: "r1", Loc: geo.Coord{Lat: 40, Lon: -80},
		AZs: []cloudsim.AZSpec{
			{Name: "az-a", PoolFIs: 1024, Mix: map[cpu.Kind]float64{cpu.Xeon25: 1}},
			{Name: "az-b", PoolFIs: 1024, Mix: map[cpu.Kind]float64{cpu.Xeon25: 0.5, cpu.EPYC: 0.5}},
		},
	}}
	cloud := cloudsim.New(env, 11, catalog, cloudsim.Options{HorizonDays: 1})
	return env, cloud, NewInjector(cloud, metrics.NewRegistry())
}

func TestInjectValidation(t *testing.T) {
	_, _, in := world(t)
	cases := []struct {
		name  string
		fault Fault
		want  error
	}{
		{"unknown kind", Fault{Kind: "meteor", AZ: "az-a", Duration: time.Minute}, ErrUnknownKind},
		{"missing az", Fault{Kind: Outage, Duration: time.Minute}, ErrBadFault},
		{"zero duration", Fault{Kind: Outage, AZ: "az-a"}, ErrBadFault},
		{"negative start", Fault{Kind: Outage, AZ: "az-a", Start: -time.Second, Duration: time.Minute}, ErrBadFault},
		{"rate above one", Fault{Kind: ThrottleStorm, AZ: "az-a", Duration: time.Minute, Magnitude: 1.5}, ErrBadFault},
		{"ghost az", Fault{Kind: Outage, AZ: "ghost", Duration: time.Minute}, cloudsim.ErrNoSuchAZ},
	}
	for _, tc := range cases {
		if _, err := in.Inject(tc.fault); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if len(in.Faults()) != 0 {
		t.Errorf("invalid faults were recorded: %v", in.Faults())
	}
}

func TestFaultWindowLifecycle(t *testing.T) {
	env, cloud, in := world(t)
	id, err := in.Inject(Fault{
		Kind: Outage, AZ: "az-a",
		Start: time.Minute, Duration: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	az, _ := cloud.AZ("az-a")
	type sample struct {
		at     time.Duration
		state  State
		outage bool
	}
	var got []sample
	for _, at := range []time.Duration{30 * time.Second, 90 * time.Second, 4 * time.Minute} {
		at := at
		env.Schedule(at, func() {
			st := in.Faults()[0].State
			got = append(got, sample{at, st, az.FaultSnapshot().Outage})
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{30 * time.Second, StatePending, false},
		{90 * time.Second, StateActive, true},
		{4 * time.Minute, StateDone, false},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	st := in.Faults()[0]
	if st.ID != id || st.StartAt != testEpoch.Add(time.Minute) || st.EndAt != testEpoch.Add(3*time.Minute) {
		t.Errorf("status = %+v", st)
	}
}

func TestOverlappingWindowsCompose(t *testing.T) {
	env, cloud, in := world(t)
	// Two throttle storms overlap; the stronger magnitude must win while
	// both are active, and ending the strong one must fall back to the weak
	// one, not clear the fault.
	if _, err := in.Inject(Fault{Kind: ThrottleStorm, AZ: "az-a", Magnitude: 0.3, Duration: 10 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Inject(Fault{Kind: ThrottleStorm, AZ: "az-a", Magnitude: 0.9, Start: 2 * time.Minute, Duration: 2 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	az, _ := cloud.AZ("az-a")
	rates := map[time.Duration]float64{}
	for _, at := range []time.Duration{time.Minute, 3 * time.Minute, 5 * time.Minute, 11 * time.Minute} {
		at := at
		env.Schedule(at, func() { rates[at] = az.FaultSnapshot().ThrottleRate })
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[time.Duration]float64{
		time.Minute:      0.3, // only the weak storm active
		3 * time.Minute:  0.9, // strongest active magnitude wins
		5 * time.Minute:  0.3, // strong window over, weak persists
		11 * time.Minute: 0,   // all clear
	}
	for at, w := range want {
		if rates[at] != w {
			t.Errorf("rate at %v = %v, want %v", at, rates[at], w)
		}
	}
}

func TestThrottleStormRejectsRequests(t *testing.T) {
	env, cloud, in := world(t)
	if _, err := cloud.Deploy("az-a", "fn", cloudsim.DeployConfig{
		MemoryMB: 1024, Behavior: cloudsim.SleepBehavior{D: 10 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Inject(Fault{Kind: ThrottleStorm, AZ: "az-a", Magnitude: 1, Duration: time.Hour}); err != nil {
		t.Fatal(err)
	}
	client, fn := faas.NewClient(cloud, "a"), faas.InvokeSpec{Call: faas.Call{AZ: "az-a", Function: "fn"}}
	var resp cloudsim.Response
	env.Go("caller", func(p *sim.Proc) error {
		p.Sleep(time.Minute) // storm active
		resp = client.Do(p, fn)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.Err, cloudsim.ErrThrottled) {
		t.Fatalf("err = %v, want throttled", resp.Err)
	}
}

func TestOutageRejectsEverything(t *testing.T) {
	env, cloud, in := world(t)
	if _, err := cloud.Deploy("az-a", "fn", cloudsim.DeployConfig{
		MemoryMB: 1024, Behavior: cloudsim.SleepBehavior{D: 10 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Inject(Fault{Kind: Outage, AZ: "az-a", Duration: time.Hour}); err != nil {
		t.Fatal(err)
	}
	client, fn := faas.NewClient(cloud, "a"), faas.InvokeSpec{Call: faas.Call{AZ: "az-a", Function: "fn"}}
	var during, after cloudsim.Response
	env.Go("caller", func(p *sim.Proc) error {
		p.Sleep(time.Minute)
		during = client.Do(p, fn)
		p.Sleep(time.Hour) // outage over
		after = client.Do(p, fn)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(during.Err, cloudsim.ErrZoneOutage) {
		t.Fatalf("during: %v, want outage", during.Err)
	}
	if !after.OK() {
		t.Fatalf("after window: %v, want recovery", after.Err)
	}
}

func TestDriftBurstPerturbsMix(t *testing.T) {
	env, cloud, in := world(t)
	az, _ := cloud.AZ("az-b")
	before := az.TrueMix()
	if _, err := in.Inject(Fault{
		Kind: DriftBurst, AZ: "az-b",
		Duration: 30 * time.Minute, Magnitude: 0.8, Step: 0.9, Every: 5 * time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	var after map[cpu.Kind]float64
	env.Schedule(20*time.Minute, func() { after = az.TrueMix() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var moved float64
	for _, k := range cpu.Kinds() {
		d := after[k] - before[k]
		if d < 0 {
			d = -d
		}
		moved += d
	}
	if moved < 0.05 {
		t.Errorf("idle mix barely moved (L1=%v): drift burst had no effect", moved)
	}
}

func TestScenariosByName(t *testing.T) {
	names := ScenarioNames()
	if len(names) != 3 {
		t.Fatalf("scenario names = %v", names)
	}
	for _, name := range names {
		sc, ok := ScenarioByName(name, "az-a")
		if !ok || sc.Name != name || len(sc.Faults) == 0 {
			t.Errorf("scenario %q = %+v ok=%v", name, sc, ok)
		}
		for _, f := range sc.Faults {
			if f.AZ != "az-a" {
				t.Errorf("scenario %q fault targets %q", name, f.AZ)
			}
		}
	}
	if _, ok := ScenarioByName("volcano", "az-a"); ok {
		t.Error("unknown scenario resolved")
	}
}

func TestInjectScenarioArmsAllFaults(t *testing.T) {
	env, cloud, _ := world(t)
	reg := metrics.NewRegistry()
	in := NewInjector(cloud, reg)
	sc, _ := ScenarioByName("degraded", "az-b")
	ids, err := in.InjectScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	var active int
	env.Schedule(time.Minute, func() { active = in.ActiveCount() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if active != 3 {
		t.Errorf("active at +1m = %d, want 3", active)
	}
	// Each armed window counts under its kind, read back by name.
	var injected uint64
	for _, k := range Kinds() {
		injected += reg.Counter("sky_chaos_faults_injected_total", "", metrics.L("kind", string(k))).Value()
	}
	if injected != 3 {
		t.Errorf("sky_chaos_faults_injected_total sums to %d, want 3", injected)
	}
}

// TestChaosDeterminism: the same seed must yield the same post-chaos world,
// and a calm run must be unaffected by the chaos hooks existing at all.
func TestChaosDeterminism(t *testing.T) {
	mixAfterStorm := func() map[cpu.Kind]float64 {
		env, cloud, in := world(t)
		sc, _ := ScenarioByName("degraded", "az-b")
		if _, err := in.InjectScenario(sc); err != nil {
			t.Fatal(err)
		}
		az, _ := cloud.AZ("az-b")
		var mix map[cpu.Kind]float64
		env.Schedule(25*time.Minute, func() { mix = az.TrueMix() })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return mix
	}
	a, b := mixAfterStorm(), mixAfterStorm()
	for _, k := range cpu.Kinds() {
		if a[k] != b[k] {
			t.Fatalf("same-seed drift diverged on %v: %v vs %v", k, a[k], b[k])
		}
	}
}
