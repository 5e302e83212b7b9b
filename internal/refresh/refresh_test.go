package refresh

import (
	"errors"
	"maps"
	"math"
	"testing"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/control"
	"skyfaas/internal/cpu"
	"skyfaas/internal/metrics"
	"skyfaas/internal/sim"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// fakeSampler is a scripted Resampler: each call burns a little virtual
// time, returns the per-zone mix it was configured with, and records the
// call order.
type fakeSampler struct {
	calls []string
	cost  float64
	delay time.Duration
	mix   map[string]charact.Counts
	fail  map[string]error
}

func (f *fakeSampler) Resample(p *sim.Proc, az string, polls int) (charact.Characterization, error) {
	if f.delay > 0 {
		p.Sleep(f.delay)
	}
	f.calls = append(f.calls, az)
	if err := f.fail[az]; err != nil {
		return charact.Characterization{}, err
	}
	counts := f.mix[az]
	if counts == nil {
		counts = charact.Counts{cpu.Xeon25: 10}
	}
	return charact.Characterization{
		AZ:      az,
		Taken:   p.Env().Now(),
		Polls:   polls,
		Samples: counts.Total(),
		Counts:  maps.Clone(counts),
		CostUSD: f.cost,
	}, nil
}

func newMaintainer(t *testing.T, env *sim.Env, cfg Config, store *charact.Store, pass *charact.Passive, fs *fakeSampler) *Maintainer {
	t.Helper()
	m, err := New(env, cfg, store, pass, fs, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidates(t *testing.T) {
	env := sim.NewEnv(epoch)
	store := charact.NewStore(0)
	if _, err := New(env, Config{Mode: "sometimes"}, store, nil, &fakeSampler{}, nil); err == nil {
		t.Fatal("unknown mode must be rejected")
	}
	if _, err := New(env, Config{}, store, nil, nil, nil); err == nil {
		t.Fatal("nil sampler must be rejected")
	}
	m, err := New(env, Config{}, store, nil, &fakeSampler{}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := m.Config()
	if cfg.Mode != ModeDrift || cfg.MaxAge != time.Hour {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestModeAgeRefreshesOnStalenessWithCooldown(t *testing.T) {
	env := sim.NewEnv(epoch)
	store := charact.NewStore(0)
	storedChar(store, "az-a", epoch, charact.Counts{cpu.Xeon30: 50})
	fs := &fakeSampler{cost: 0.01, delay: 30 * time.Second}
	m := newMaintainer(t, env, Config{
		Zones:    []string{"az-a"},
		Mode:     ModeAge,
		MaxAge:   10 * time.Minute,
		Cooldown: 30 * time.Minute,
	}, store, nil, fs)
	m.Start()
	if err := env.RunFor(45 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	m.Stop()

	// Due at 10m (age hits MaxAge), then again at 40m (cooldown expires
	// and the refreshed model is stale again by then).
	if len(fs.calls) != 2 {
		t.Fatalf("calls = %v, want exactly 2 age-triggered refreshes", fs.calls)
	}
	st := mustSnapshot(t, env, m)
	if st.Refreshes != 2 || st.SkippedCooldown == 0 {
		t.Fatalf("snapshot = %+v, want 2 refreshes and >0 cooldown skips", st)
	}
	ch, ok := store.Last("az-a")
	if !ok || !ch.Taken.After(epoch) {
		t.Fatalf("store not updated: %+v ok=%v", ch, ok)
	}
}

func TestModeDriftRefreshesOnlyDriftedZone(t *testing.T) {
	env := sim.NewEnv(epoch)
	store := charact.NewStore(0)
	pass := charact.NewPassive(2 * time.Hour)
	// az-ok's traffic matches its model; az-bad's model says Xeon30 but
	// traffic lands on EPYC.
	storedChar(store, "az-ok", epoch, charact.Counts{cpu.Xeon25: 50})
	storedChar(store, "az-bad", epoch, charact.Counts{cpu.Xeon30: 50})
	feed(pass, "az-ok", epoch, cpu.Xeon25, 40)
	feed(pass, "az-bad", epoch, cpu.EPYC, 40)

	fs := &fakeSampler{cost: 0.01, delay: 30 * time.Second, mix: map[string]charact.Counts{
		"az-bad": {cpu.EPYC: 50}, // re-sampling discovers the new reality
	}}
	m := newMaintainer(t, env, Config{
		Mode:           ModeDrift,
		MaxAge:         24 * time.Hour, // keep the age backstop out of the way
		DriftThreshold: 0.10,
		MinSamples:     10,
		Cooldown:       5 * time.Minute,
	}, store, pass, fs)
	m.Start()
	if err := env.RunFor(30 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	m.Stop()

	// Exactly one refresh: az-bad once; the refreshed model then agrees
	// with the passive mix, so drift clears and az-ok is never touched.
	if len(fs.calls) != 1 || fs.calls[0] != "az-bad" {
		t.Fatalf("calls = %v, want exactly [az-bad]", fs.calls)
	}
	ch, _ := store.Last("az-bad")
	if ch.Counts[cpu.EPYC] != 50 {
		t.Fatalf("store not refreshed with new mix: %+v", ch)
	}
}

func TestTrafficShareOrdersUrgency(t *testing.T) {
	env := sim.NewEnv(epoch)
	store := charact.NewStore(0) // both zones unknown → both due
	fs := &fakeSampler{cost: 0.001, delay: 10 * time.Second}
	m := newMaintainer(t, env, Config{
		Zones: []string{"az-a", "az-b"},
		Mode:  ModeAge,
	}, store, nil, fs)
	// az-b carries 9x the traffic; it must be re-characterized first even
	// though az-a sorts first alphabetically.
	env.Schedule(0, func() {
		m.ObserveTraffic("az-a", 10)
		m.ObserveTraffic("az-b", 90)
	})
	m.Start()
	if err := env.RunFor(5 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	m.Stop()
	if len(fs.calls) < 2 || fs.calls[0] != "az-b" || fs.calls[1] != "az-a" {
		t.Fatalf("calls = %v, want az-b before az-a", fs.calls)
	}
}

func TestBudgetGovernsSpend(t *testing.T) {
	env := sim.NewEnv(epoch)
	store := charact.NewStore(0) // three unknown zones, all due at once
	fs := &fakeSampler{cost: 0.03, delay: 10 * time.Second}
	m := newMaintainer(t, env, Config{
		Zones:       []string{"az-a", "az-b", "az-c"},
		Mode:        ModeAge,
		RatePerHour: 1e-6, // effectively no refill within the run
		Cap:         0.05,
		Cooldown:    2 * time.Hour,
	}, store, nil, fs)
	m.Start()
	if err := env.RunFor(10 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	m.Stop()

	// 0.05 of budget admits the first (0.05→0.02) and second (0.02→-0.01)
	// refresh; the third is blocked until the bucket recovers, which the
	// micro refill rate never achieves in-run.
	if len(fs.calls) != 2 {
		t.Fatalf("calls = %v, want exactly 2 before budget exhaustion", fs.calls)
	}
	st := mustSnapshot(t, env, m)
	if st.SkippedBudget == 0 {
		t.Fatalf("snapshot = %+v, want >0 budget skips", st)
	}
	if !almost(st.SpentUSD, 0.06) {
		t.Fatalf("spent = %v, want 0.06", st.SpentUSD)
	}
	if _, ok := store.Last("az-c"); ok {
		t.Fatal("az-c must still be uncharacterized (budget blocked it)")
	}
}

func TestResampleErrorLeavesOldModel(t *testing.T) {
	env := sim.NewEnv(epoch)
	store := charact.NewStore(0)
	storedChar(store, "az-a", epoch, charact.Counts{cpu.Xeon30: 50})
	fs := &fakeSampler{cost: 0.01, fail: map[string]error{"az-a": errors.New("zone outage")}}
	m := newMaintainer(t, env, Config{
		Zones:    []string{"az-a"},
		Mode:     ModeAge,
		MaxAge:   5 * time.Minute,
		Cooldown: 20 * time.Minute,
	}, store, nil, fs)
	m.Start()
	if err := env.RunFor(30 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	m.Stop()

	// Failed refreshes must not wipe the stored model, must not count as
	// refreshes, and must honor the cooldown before retrying.
	ch, ok := store.Last("az-a")
	if !ok || !ch.Taken.Equal(epoch) {
		t.Fatalf("old characterization must survive a failed refresh: %+v ok=%v", ch, ok)
	}
	if st := mustSnapshot(t, env, m); st.Refreshes != 0 {
		t.Fatalf("failed attempts must not count as refreshes: %+v", st)
	}
	if len(fs.calls) < 1 || len(fs.calls) > 3 {
		t.Fatalf("calls = %v, want 1-3 cooldown-limited retries over 30m", fs.calls)
	}
}

func TestForceBypassesModeAndDebits(t *testing.T) {
	env := sim.NewEnv(epoch)
	store := charact.NewStore(0)
	fs := &fakeSampler{cost: 0.02}
	reg := metrics.NewRegistry()
	m, err := New(env, Config{Zones: []string{"az-a"}, Mode: ModeOff}, store, nil, fs, reg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	var forced charact.Characterization
	var ferr error
	env.Go("force", func(p *sim.Proc) error {
		p.Sleep(5 * time.Minute)
		forced, ferr = m.Force(p, "az-a", 7)
		return nil
	})
	env.Schedule(10*time.Minute, m.Stop)
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ferr != nil {
		t.Fatalf("Force: %v", ferr)
	}
	if forced.Polls != 7 {
		t.Fatalf("forced polls = %d, want 7", forced.Polls)
	}
	if len(fs.calls) != 1 {
		t.Fatalf("calls = %v, want only the forced refresh under ModeOff", fs.calls)
	}
	st := mustSnapshot(t, env, m)
	if st.Forced != 1 || st.Refreshes != 1 || !almost(st.SpentUSD, 0.02) {
		t.Fatalf("snapshot = %+v, want forced=1 refreshes=1 spent=0.02", st)
	}
	if got := reg.Counter("sky_refresh_polls_total", "").Value(); got != 7 {
		t.Errorf("sky_refresh_polls_total = %d, want the forced refresh's 7 polls", got)
	}
}

func TestSnapshotZoneStatus(t *testing.T) {
	env := sim.NewEnv(epoch)
	store := charact.NewStore(time.Hour)
	pass := charact.NewPassive(2 * time.Hour)
	storedChar(store, "az-a", epoch, charact.Counts{cpu.Xeon30: 50})
	feed(pass, "az-a", epoch, cpu.EPYC, 40)
	fs := &fakeSampler{cost: 0.01}
	m := newMaintainer(t, env, Config{
		Zones:          []string{"az-a", "az-new"},
		Mode:           ModeDrift,
		MinSamples:     10,
		DriftThreshold: 0.10,
	}, store, pass, fs)
	env.Schedule(0, func() { m.ObserveTraffic("az-a", 100) })

	var st Status
	env.Schedule(5*time.Minute, func() { st = m.Snapshot() })
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if st.Mode != ModeDrift || len(st.Zones) != 2 {
		t.Fatalf("snapshot = %+v, want drift mode and 2 zones", st)
	}
	byAZ := map[string]ZoneStatus{}
	for _, z := range st.Zones {
		byAZ[z.AZ] = z
	}
	a := byAZ["az-a"]
	if !a.Known || !a.Fresh || a.Age != 5*time.Minute {
		t.Fatalf("az-a status = %+v, want known fresh age=5m", a)
	}
	if !a.Due || a.Reason != ReasonDrift || !a.Drift.Confident || a.Drift.TV < 0.99 {
		t.Fatalf("az-a status = %+v, want due for confident drift", a)
	}
	if !almost(a.TrafficShare, 1.0) {
		t.Fatalf("az-a traffic share = %v, want 1.0", a.TrafficShare)
	}
	n := byAZ["az-new"]
	if n.Known || !n.Due || n.Reason != ReasonUnknown {
		t.Fatalf("az-new status = %+v, want unknown and due", n)
	}
	if n.Urgency >= a.Urgency {
		// az-a combines drift + full traffic share; the unknown zone's
		// fixed boost must not outrank it.
		t.Fatalf("urgency(az-new)=%v >= urgency(az-a)=%v", n.Urgency, a.Urgency)
	}
}

// TestSetModeAndRetune: the maintainer's loop knows refresh's modes, and a
// retune shows in the maintainer's snapshot. The validation rules
// themselves are the kit's (control.TestSetModeAndRetune).
func TestSetModeAndRetune(t *testing.T) {
	env := sim.NewEnv(epoch)
	m := newMaintainer(t, env, Config{}, charact.NewStore(0), nil, &fakeSampler{})
	if err := m.SetMode("never"); !errors.Is(err, control.ErrUnknownMode) {
		t.Fatalf("SetMode(never) = %v, want ErrUnknownMode", err)
	}
	if err := m.SetMode(ModeAge); err != nil {
		t.Fatalf("SetMode: %v", err)
	}
	if err := m.Apply(control.Retune{Budget: &control.BudgetRetune{}}); !errors.Is(err, control.ErrBadBudget) {
		t.Fatalf("zero-cap retune = %v, want ErrBadBudget", err)
	}
	if err := m.Apply(control.Retune{Mode: string(ModeDrift), Budget: &control.BudgetRetune{RatePerHour: 2.0, CapUSD: 0.40}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	st := mustSnapshot(t, env, m)
	if st.Mode != ModeDrift || !almost(st.BudgetRate, 2.0) || !almost(st.BudgetCap, 0.40) || !almost(st.BudgetBalance, 0.40) {
		t.Fatalf("snapshot = %+v, want retuned drift-mode budget", st)
	}
}

// mustSnapshot reads a snapshot from inside the simulation.
func mustSnapshot(t *testing.T, env *sim.Env, m *Maintainer) Status {
	t.Helper()
	var st Status
	env.Schedule(0, func() { st = m.Snapshot() })
	if err := env.Run(); err != nil {
		t.Fatalf("snapshot run: %v", err)
	}
	return st
}
