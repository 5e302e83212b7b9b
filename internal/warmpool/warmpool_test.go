package warmpool

import (
	"errors"
	"math"
	"testing"
	"time"

	"skyfaas/internal/control"
	"skyfaas/internal/metrics"
	"skyfaas/internal/sim"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeActuator is a scripted Actuator: it tracks per-zone live counts,
// fills any deficit instantly at a fixed per-instance cost, and records
// every call so tests can assert policy behaviour.
type fakeActuator struct {
	env      *sim.Env
	perInit  float64
	capacity int // max live per zone (0 = unlimited)
	live     map[string]int
	calls    []actCall
}

type actCall struct {
	az            string
	target, floor int
}

func newFakeActuator(env *sim.Env) *fakeActuator {
	return &fakeActuator{env: env, perInit: 0.001, live: make(map[string]int)}
}

func (a *fakeActuator) EnsureWarm(az string, target, floor int, done func(Provision)) {
	a.calls = append(a.calls, actCall{az: az, target: target, floor: floor})
	r := Provision{}
	if deficit := target - a.live[az]; deficit > 0 {
		r.Requested = deficit
		if a.capacity > 0 && a.live[az]+deficit > a.capacity {
			deficit = a.capacity - a.live[az]
		}
		r.Provisioned = deficit
		r.CostUSD = float64(deficit) * a.perInit
		a.live[az] += deficit
	}
	// The floor is the retention mechanism: below it the fake reaps
	// nothing, above it the pool decays to the floor (stand-in for
	// keep-alive expiry between ticks).
	if floor < a.live[az] && target < a.live[az] {
		a.live[az] = max(floor, target)
	}
	r.Live = a.live[az]
	r.Idle = a.live[az]
	a.env.Schedule(time.Millisecond, func() { done(r) })
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func constSvc(ms float64) func() float64 { return func() float64 { return ms } }

func newTestMaintainer(t *testing.T, env *sim.Env, cfg Config, act Actuator) *Maintainer {
	t.Helper()
	m, err := New(env, cfg, act, constSvc(200), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func mustSnapshot(t *testing.T, env *sim.Env, m *Maintainer) Status {
	t.Helper()
	var st Status
	env.Schedule(0, func() { st = m.Snapshot() })
	if err := env.Run(); err != nil {
		t.Fatalf("snapshot run: %v", err)
	}
	return st
}

func TestNewValidates(t *testing.T) {
	env := sim.NewEnv(epoch)
	act := newFakeActuator(env)
	if _, err := New(env, Config{Mode: "clairvoyant"}, act, constSvc(100), nil); err == nil {
		t.Fatal("unknown mode must be rejected")
	}
	if _, err := New(env, Config{}, nil, constSvc(100), nil); err == nil {
		t.Fatal("nil actuator must be rejected")
	}
	if _, err := New(env, Config{}, act, nil, nil); err == nil {
		t.Fatal("nil service estimator must be rejected")
	}
	if _, err := New(env, Config{Window: time.Hour, Season: time.Minute}, act, constSvc(100), nil); err == nil {
		t.Fatal("window > season must be rejected")
	}
	m, err := New(env, Config{}, act, constSvc(100), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := m.Config()
	if cfg.Mode != ModePredictive || cfg.TickEvery != 30*time.Second {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if got := m.size(1e6); got != 64 {
		t.Fatalf("size(1e6 rps) = %d, want the per-zone cap of 64", got)
	}
}

func TestForecasterLearnsSeason(t *testing.T) {
	window, season := time.Minute, 10*time.Minute
	f := newForecaster(epoch, window, season, 0.5, 0.35)
	// A square wave: 5 minutes at 600/min, 5 minutes idle, repeated.
	now := epoch
	for cycle := 0; cycle < 6; cycle++ {
		for w := 0; w < 10; w++ {
			if w < 5 {
				f.observe(now, 600)
			} else {
				f.advance(now)
			}
			now = now.Add(window)
		}
	}
	// now sits at the start of a high phase; the trailing idle phase has
	// dragged the recent EWMA down while the 1-window-ahead forecast sees
	// the seasonal high coming.
	forecast := f.forecastRPS(window)
	recent := f.recentRPS()
	if forecast <= recent {
		t.Fatalf("forecast %.2f rps should exceed recent %.2f rps at the rising edge", forecast, recent)
	}
	if forecast < 5 {
		t.Fatalf("forecast %.2f rps, want near the 10 rps high phase", forecast)
	}
	// And just before the falling edge, the forecast should anticipate
	// the idle phase.
	for w := 0; w < 5; w++ {
		f.observe(now, 600)
		now = now.Add(window)
	}
	f.advance(now)
	if fall := f.forecastRPS(window); fall >= f.recentRPS() {
		t.Fatalf("forecast %.2f rps should drop below recent %.2f rps at the falling edge", fall, f.recentRPS())
	}
}

// TestPredictiveFloorReleasesBeforeFall: within one lead of a falling
// seasonal edge, the predictive policy still targets the peak window
// inside the lead (don't drop capacity the plateau is using) while its
// floor follows the point forecast down — releasing held capacity ahead
// of the drop, the falling-edge mirror of pre-warming a rise.
func TestPredictiveFloorReleasesBeforeFall(t *testing.T) {
	env := sim.NewEnv(epoch)
	act := newFakeActuator(env)
	m := newTestMaintainer(t, env, Config{
		Zones: []string{"az-1"}, Mode: ModePredictive,
		Window: time.Minute, Season: 10 * time.Minute, Lead: 2 * time.Minute,
	}, act)
	z := m.zones["az-1"]
	// Train on a square wave: 5 busy minutes at 10 rps, 5 idle, repeated.
	now := epoch
	for cycle := 0; cycle < 4; cycle++ {
		for w := 0; w < 10; w++ {
			if w < 5 {
				z.f.observe(now, 600)
			} else {
				z.f.advance(now)
			}
			now = now.Add(time.Minute)
		}
	}
	// Walk 3 windows into the high phase: the 2-minute lead now straddles
	// the falling edge — one plateau window ahead, then the idle phase.
	for w := 0; w < 3; w++ {
		z.f.observe(now, 600)
		now = now.Add(time.Minute)
	}
	z.f.advance(now)
	target, floor := m.plan(z, now)
	if target < 2 {
		t.Fatalf("target = %d, want the plateau still provisioned (peak within the lead)", target)
	}
	if floor >= target {
		t.Fatalf("floor %d >= target %d: the floor should release ahead of the falling edge", floor, target)
	}
}

func TestPinnedHoldsFloorWithoutTraffic(t *testing.T) {
	env := sim.NewEnv(epoch)
	act := newFakeActuator(env)
	reg := metrics.NewRegistry()
	m, err := New(env, Config{
		Zones: []string{"az-a", "az-b"},
		Mode:  ModePinned,
		Floor: 3,
	}, act, constSvc(200), reg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := env.RunFor(5 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	m.Stop()
	if act.live["az-a"] != 3 || act.live["az-b"] != 3 {
		t.Fatalf("live = %v, want 3 in both zones", act.live)
	}
	st := mustSnapshot(t, env, m)
	if st.Provisioned != 6 {
		t.Fatalf("provisioned = %d, want 6 (3 per zone, once)", st.Provisioned)
	}
	if got := reg.Counter("sky_warmpool_provisioned_total", "").Value(); got != 6 {
		t.Errorf("sky_warmpool_provisioned_total = %d, want 6", got)
	}
	if st.SpentUSD <= 0 || math.Abs(st.SpentUSD-6*act.perInit) > 1e-9 {
		t.Fatalf("spent = %f, want %f", st.SpentUSD, 6*act.perInit)
	}
	for _, z := range st.Zones {
		if z.Target != 3 || z.Floor != 3 {
			t.Fatalf("zone %+v, want target/floor 3", z)
		}
	}
}

func TestReactiveTracksRateAndOffClears(t *testing.T) {
	env := sim.NewEnv(epoch)
	act := newFakeActuator(env)
	m := newTestMaintainer(t, env, Config{
		Zones:     []string{"az-a"},
		Mode:      ModeReactive,
		TickEvery: 30 * time.Second,
		Window:    time.Minute,
		Season:    10 * time.Minute,
	}, act)
	// 10 rps of observed traffic; at 200 ms service time Little's law
	// wants 2 warm instances, 3 once padded by the safety factor.
	var feed func()
	stop := epoch.Add(10 * time.Minute)
	feed = func() {
		if env.Now().After(stop) {
			return
		}
		m.ObserveTraffic("az-a", 10)
		env.Schedule(time.Second, feed)
	}
	env.Schedule(0, feed)
	m.Start()
	if err := env.RunFor(10 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := act.live["az-a"]; got != 3 {
		t.Fatalf("live = %d, want 3 (10 rps x 0.2 s x 1.25, rounded up)", got)
	}
	// Switching off clears the floor and the pool drains.
	env.Schedule(0, func() {
		if err := m.SetMode(ModeOff); err != nil {
			t.Errorf("SetMode: %v", err)
		}
	})
	if err := env.RunFor(2 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	m.Stop()
	if got := act.live["az-a"]; got != 0 {
		t.Fatalf("live = %d after off, want 0", got)
	}
	last := act.calls[len(act.calls)-1]
	if last.target != 0 || last.floor != 0 {
		t.Fatalf("last actuation %+v, want cleared target and floor", last)
	}
}

func TestBudgetGatesGrowth(t *testing.T) {
	env := sim.NewEnv(epoch)
	act := newFakeActuator(env)
	act.perInit = 1  // expensive: one instance exhausts the bucket
	act.capacity = 4 // zone saturates below the floor, leaving a deficit
	m := newTestMaintainer(t, env, Config{
		Zones:       []string{"az-a"},
		Mode:        ModePinned,
		Floor:       10,
		TickEvery:   30 * time.Second,
		RatePerHour: 0.5,
		Cap:         0.5,
	}, act)
	m.Start()
	if err := env.RunFor(30 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	m.Stop()
	st := mustSnapshot(t, env, m)
	// The first actuation provisions to the zone's capacity and drives the
	// balance to 0.5 - 4 = -3.5 USD; refill at 0.5/h cannot go positive
	// again within the run, so every later attempt to close the remaining
	// deficit is budget-skipped.
	if st.Provisioned != 4 {
		t.Fatalf("provisioned = %d, want the single pre-budget actuation", st.Provisioned)
	}
	if st.SkippedBudget == 0 {
		t.Fatal("no budget skips recorded")
	}
	if st.BudgetBalance >= 0 {
		t.Fatalf("balance = %f, want negative after the overdraft", st.BudgetBalance)
	}
}

// TestRetuneBudgetAndModeValidation: the maintainer's loop knows the
// warm-pool modes, rejects a bad budget, and a retune shows in the
// maintainer's snapshot. The validation rules themselves are the kit's
// (control.TestSetModeAndRetune).
func TestRetuneBudgetAndModeValidation(t *testing.T) {
	env := sim.NewEnv(epoch)
	m := newTestMaintainer(t, env, Config{Zones: []string{"az-a"}}, newFakeActuator(env))
	env.Schedule(0, func() {
		if err := m.SetMode("warmish"); !errors.Is(err, control.ErrUnknownMode) {
			t.Errorf("SetMode(warmish) = %v, want ErrUnknownMode", err)
		}
		if err := m.Apply(control.Retune{Budget: &control.BudgetRetune{RatePerHour: -1, CapUSD: 1}}); !errors.Is(err, control.ErrBadBudget) {
			t.Errorf("negative-rate retune = %v, want ErrBadBudget", err)
		}
		if err := m.Apply(control.Retune{Mode: string(ModePredictive), Budget: &control.BudgetRetune{RatePerHour: 2, CapUSD: 3}}); err != nil {
			t.Errorf("Apply: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := mustSnapshot(t, env, m)
	if st.Mode != ModePredictive || st.BudgetRate != 2 || st.BudgetCap != 3 {
		t.Fatalf("snapshot = %+v, want predictive mode with budget 2/3", st)
	}
}

func TestDynamicZoneAdoption(t *testing.T) {
	env := sim.NewEnv(epoch)
	act := newFakeActuator(env)
	m := newTestMaintainer(t, env, Config{Mode: ModeReactive}, act)
	env.Schedule(time.Second, func() { m.ObserveTraffic("az-new", 50) })
	m.Start()
	if err := env.RunFor(5 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	m.Stop()
	st := mustSnapshot(t, env, m)
	if len(st.Zones) != 1 || st.Zones[0].AZ != "az-new" {
		t.Fatalf("zones = %+v, want the adopted az-new", st.Zones)
	}
	if act.live["az-new"] == 0 {
		t.Fatal("adopted zone never provisioned")
	}
}
