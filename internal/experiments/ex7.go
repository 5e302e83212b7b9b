package experiments

import (
	"fmt"
	"time"

	"skyfaas/internal/chaos"
	"skyfaas/internal/refresh"
	"skyfaas/internal/router"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/workload"
)

// EX-7 — continuous characterization maintenance under drift. EX-4 showed
// characterizations rot; EX-6's drift-burst showed how violently. EX-7 asks
// what to do about it: each arm runs the same traffic through the same
// drifting sky, differing only in the refresh maintainer's trigger policy.
// The hybrid router keeps routing on whatever the store believes, so
// routing quality (fast-CPU hit rate) directly exposes how stale that
// belief is — and the maintainer's ledger exposes what keeping it fresh
// cost. The headline claim: drift-triggered refresh recovers near-fresh
// routing quality at a fraction of naive periodic re-sampling's spend.

// EX7Arm is one maintenance policy under test.
type EX7Arm struct {
	// Label names the arm in tables and CSVs.
	Label string
	// Refresh configures the maintainer (zones are filled in by the
	// runner). Mode off = the paper's sample-once baseline.
	Refresh refresh.Config
}

// DefaultEX7Arms returns the canonical policy ladder: sample-once (the
// paper's default), naive periodic re-sampling, and drift-triggered
// refresh. Budgets are deliberately generous so the measured spend is the
// policy's appetite, not the governor's clamp.
func DefaultEX7Arms() []EX7Arm {
	generous := func(c refresh.Config) refresh.Config {
		c.TickEvery = time.Minute
		c.RatePerHour = 10
		c.Cap = 10
		return c
	}
	return []EX7Arm{
		{Label: "static-once", Refresh: generous(refresh.Config{
			Mode: refresh.ModeOff,
		})},
		{Label: "periodic", Refresh: generous(refresh.Config{
			Mode:     refresh.ModeAge,
			MaxAge:   20 * time.Minute,
			Cooldown: 10 * time.Minute,
		})},
		{Label: "drift", Refresh: generous(refresh.Config{
			Mode:           refresh.ModeDrift,
			MaxAge:         6 * time.Hour, // age backstop out of the measurement span
			DriftThreshold: 0.12,
			MinSamples:     40,
			Cooldown:       15 * time.Minute,
		})},
	}
}

// EX7Config parameterizes EX-7.
type EX7Config struct {
	Seed uint64
	// HopZones are the candidate zones (default: EX-5's three).
	HopZones []string
	// Workload under test (default zipper).
	Workload workload.ID
	// BurstN is invocations per measured burst (default 300).
	BurstN int
	// Bursts is the number of measured bursts (default 10).
	Bursts int
	// BurstEvery is the gap between bursts (default 12m — past the 5m
	// keep-alive, so each burst's placements re-sample the, possibly
	// drifted, idle pool).
	BurstEvery time.Duration
	// ProfileRuns is per-zone profiling executions (default 2,000).
	ProfileRuns int
	// InitPolls is the initial characterization depth (default 6).
	InitPolls int
	// RefreshPolls is the maintainer's re-characterization depth
	// (default 3).
	RefreshPolls int
	// DriftMagnitude is the chaos drift-burst idle-pool replacement
	// fraction (default 0.9).
	DriftMagnitude float64
	// DriftStep is the burst's mix-walk step (default 1.0 — a hard regime
	// change, not gentle churn).
	DriftStep float64
	// DriftEvery is the poisoning repetition period. The default (the whole
	// measurement span) fires exactly one burst: a persistent regime change
	// the stale model stays wrong about, which is the failure mode refresh
	// exists to catch. Short periods instead model churn faster than any
	// sampler can track, where no policy can win.
	DriftEvery time.Duration
	// PassiveWindow is the passive collector's sliding window (default
	// 30m: about two burst intervals of evidence).
	PassiveWindow time.Duration
	// Arms overrides the policy ladder (default DefaultEX7Arms).
	Arms []EX7Arm
	// Sampler overrides the polling configuration.
	Sampler sampler.Config
}

func (c EX7Config) withDefaults() EX7Config {
	if len(c.HopZones) == 0 {
		c.HopZones = []string{"us-west-1a", "us-west-1b", "sa-east-1a"}
	}
	if c.Workload == 0 {
		c.Workload = workload.Zipper
	}
	if c.BurstN == 0 {
		c.BurstN = 300
	}
	if c.Bursts == 0 {
		c.Bursts = 10
	}
	if c.BurstEvery == 0 {
		c.BurstEvery = 12 * time.Minute
	}
	if c.ProfileRuns == 0 {
		c.ProfileRuns = 2000
	}
	if c.InitPolls == 0 {
		c.InitPolls = 6
	}
	if c.RefreshPolls == 0 {
		c.RefreshPolls = 3
	}
	if c.DriftMagnitude == 0 {
		c.DriftMagnitude = 0.9
	}
	if c.DriftStep == 0 {
		c.DriftStep = 1.0
	}
	if c.DriftEvery == 0 {
		c.DriftEvery = time.Duration(c.Bursts+1) * c.BurstEvery
	}
	if c.PassiveWindow == 0 {
		c.PassiveWindow = 30 * time.Minute
	}
	if len(c.Arms) == 0 {
		c.Arms = DefaultEX7Arms()
	}
	return c
}

// Reduced returns a benchmark-scale EX-7.
func (c EX7Config) Reduced() EX7Config {
	c = c.withDefaults()
	c.BurstN = 150
	c.Bursts = 8
	c.ProfileRuns = 450
	c.InitPolls = 3
	c.Sampler = sampler.Config{
		Endpoints: 60, PollSize: 222, Branch: 10,
		InterPollPause: 500 * time.Millisecond,
	}
	return c
}

// EX7Cell is one maintenance arm's measurement.
type EX7Cell struct {
	Arm string
	// TargetAZ is the drifted zone (the hybrid favorite at t0).
	TargetAZ string
	// FastKind is the workload's fastest observed CPU kind.
	FastKind string
	// Completed and FastHits accumulate over all measured bursts;
	// FastRate = FastHits / Completed.
	Completed int
	FastHits  int
	FastRate  float64
	// Refreshes and RefreshUSD come from the maintainer's ledger.
	Refreshes  int
	RefreshUSD float64
	// BurstUSD is the routed traffic's own spend.
	BurstUSD float64
	// TotalUSD = BurstUSD + RefreshUSD.
	TotalUSD float64
}

// EX7Result carries one cell per arm, in arm order.
type EX7Result struct {
	Workload workload.ID
	Cells    []EX7Cell
}

// Cell returns the named arm's measurement.
func (r EX7Result) Cell(arm string) (EX7Cell, bool) {
	for _, c := range r.Cells {
		if c.Arm == arm {
			return c, true
		}
	}
	return EX7Cell{}, false
}

// RunEX7 executes EX-7.
func RunEX7(cfg EX7Config) (EX7Result, error) {
	cfg = cfg.withDefaults()
	res := EX7Result{Workload: cfg.Workload}
	for _, arm := range cfg.Arms {
		cell, err := runEX7Cell(cfg, arm)
		if err != nil {
			return EX7Result{}, fmt.Errorf("ex7: %s: %w", arm.Label, err)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// runEX7Cell measures one maintenance policy in a fresh runtime: identical
// seed, identical chaos, identical traffic — only the refresh trigger
// differs.
func runEX7Cell(cfg EX7Config, arm EX7Arm) (EX7Cell, error) {
	rt, err := newRuntime(cfg.Seed, 2, cfg.Sampler)
	if err != nil {
		return EX7Cell{}, err
	}
	rt.EnablePassiveCharacterization(cfg.PassiveWindow)
	rcfg := arm.Refresh
	rcfg.Zones = append([]string(nil), cfg.HopZones...)
	rcfg.Polls = cfg.RefreshPolls
	m, err := rt.EnableRefresh(rcfg)
	if err != nil {
		return EX7Cell{}, err
	}
	cell := EX7Cell{Arm: arm.Label}
	err = rt.Do(func(p *sim.Proc) error {
		defer m.Stop()
		if _, err := rt.Refresh(p, cfg.HopZones, cfg.InitPolls); err != nil {
			return err
		}
		if _, err := rt.ProfileWorkloads(p, []workload.ID{cfg.Workload}, cfg.HopZones, cfg.ProfileRuns); err != nil {
			return err
		}
		fast := rt.Perf().Kinds(cfg.Workload)
		if len(fast) == 0 {
			return fmt.Errorf("no perf observations for %s", cfg.Workload)
		}
		fastKind := fast[0]
		cell.FastKind = fastKind.String()

		keepAlive := rt.Cloud().Options().KeepAlive
		p.Sleep(keepAlive + time.Minute)

		// Find the zone the hybrid strategy prefers and aim the drift
		// exactly there: poisoning a zone nobody routes to proves nothing.
		probe, err := rt.Run(p, router.BurstSpec{
			Strategy:   router.Hybrid{},
			Workload:   cfg.Workload,
			N:          50,
			Candidates: cfg.HopZones,
		})
		if err != nil {
			return err
		}
		cell.TargetAZ = probe.AZ
		p.Sleep(keepAlive + time.Minute)

		// Poison the favorite — by default one hard regime change at the
		// start of the span — then start the maintenance loop and route
		// through the drift.
		span := time.Duration(cfg.Bursts+1) * cfg.BurstEvery
		if _, err := rt.Chaos().Inject(chaos.Fault{
			Kind:      chaos.DriftBurst,
			AZ:        cell.TargetAZ,
			Start:     time.Minute,
			Duration:  span,
			Magnitude: cfg.DriftMagnitude,
			Step:      cfg.DriftStep,
			Every:     cfg.DriftEvery,
		}); err != nil {
			return err
		}
		m.Start()

		// Measurement bursts use the regional strategy: it places on
		// whichever zone the *stored* characterizations say is fastest and
		// takes the CPUs it gets, so a rotten model shows up directly as a
		// lower fast-CPU hit rate (hybrid's CPU-banning retries would mask
		// staleness as extra attempts and cost instead).
		for i := 0; i < cfg.Bursts; i++ {
			p.Sleep(cfg.BurstEvery)
			r, err := rt.Run(p, router.BurstSpec{
				Strategy:   router.Regional{},
				Workload:   cfg.Workload,
				N:          cfg.BurstN,
				Candidates: cfg.HopZones,
			})
			if err != nil {
				return err
			}
			cell.Completed += r.Completed
			cell.FastHits += r.PerCPU[fastKind]
			cell.BurstUSD += r.CostUSD
		}

		st := m.Snapshot()
		cell.Refreshes = st.Refreshes
		cell.RefreshUSD = st.SpentUSD
		return nil
	})
	if err != nil {
		return EX7Cell{}, err
	}
	if cell.Completed > 0 {
		cell.FastRate = float64(cell.FastHits) / float64(cell.Completed)
	}
	cell.TotalUSD = cell.BurstUSD + cell.RefreshUSD
	return cell, nil
}

// Render produces the maintenance-policy report.
func (r EX7Result) Render() string {
	out := fmt.Sprintf("EX-7 — characterization maintenance under drift (%s)\n\n", r.Workload)
	t := tablefmt.New("arm", "fast-rate", "completed", "refreshes", "refresh $", "burst $", "total $")
	for _, c := range r.Cells {
		t.Row(c.Arm, tablefmt.Pct(c.FastRate), c.Completed, c.Refreshes,
			tablefmt.USD(c.RefreshUSD), tablefmt.USD(c.BurstUSD), tablefmt.USD(c.TotalUSD))
	}
	out += t.String()
	if len(r.Cells) > 0 {
		out += fmt.Sprintf("\ndrift target %s, fastest CPU %s\n", r.Cells[0].TargetAZ, r.Cells[0].FastKind)
	}
	drift, okD := r.Cell("drift")
	static, okS := r.Cell("static-once")
	periodic, okP := r.Cell("periodic")
	if okD && okS && okP && periodic.RefreshUSD > 0 {
		out += fmt.Sprintf("\nheadline: drift-triggered refresh lifted the fast-CPU hit rate from %s (static-once) to %s while spending %.0f%% of periodic re-sampling's refresh budget\n",
			tablefmt.Pct(static.FastRate), tablefmt.Pct(drift.FastRate),
			100*drift.RefreshUSD/periodic.RefreshUSD)
	}
	return out
}

// WriteCSV writes the arm table as one dataset.
func (r EX7Result) WriteCSV(dir string) error {
	t := tablefmt.New("arm", "target_az", "fast_kind", "fast_rate", "completed",
		"fast_hits", "refreshes", "refresh_usd", "burst_usd", "total_usd")
	for _, c := range r.Cells {
		t.Row(c.Arm, c.TargetAZ, c.FastKind, c.FastRate, c.Completed,
			c.FastHits, c.Refreshes, c.RefreshUSD, c.BurstUSD, c.TotalUSD)
	}
	return writeCSVFile(dir, "ex7_refresh.csv", t)
}
