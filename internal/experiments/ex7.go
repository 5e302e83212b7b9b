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
	// BurstN is invocations per measured burst (default 300).
	BurstN int
	// Bursts is the number of measured bursts (default 10).
	Bursts int
	// ProfileRuns is per-zone profiling executions (default 2,000).
	ProfileRuns int
	// InitPolls is the initial characterization depth (default 6).
	InitPolls int
	// Sampler overrides the polling configuration.
	Sampler sampler.Config
}

const (
	// ex7BurstEvery is the gap between bursts: past the 5m keep-alive, so
	// each burst's placements re-sample the, possibly drifted, idle pool.
	ex7BurstEvery = 12 * time.Minute
	// ex7RefreshPolls is the maintainer's re-characterization depth.
	ex7RefreshPolls = 3
	// ex7DriftMagnitude is the chaos drift-burst idle-pool replacement
	// fraction, and ex7DriftStep its mix-walk step: a hard regime change,
	// not gentle churn.
	ex7DriftMagnitude = 0.9
	ex7DriftStep      = 1.0
	// ex7DriftEvery is the poisoning repetition period: the full-scale
	// measurement span of (10+1) burst gaps, so it fires exactly one burst
	// at either scale. That is a persistent regime change the stale model
	// stays wrong about, the failure mode refresh exists to catch. Short
	// periods instead model churn faster than any sampler can track, where
	// no policy can win.
	ex7DriftEvery = 11 * ex7BurstEvery
	// ex7PassiveWindow is the passive collector's sliding window: about
	// two burst intervals of evidence.
	ex7PassiveWindow = 30 * time.Minute
)

func (c EX7Config) withDefaults() EX7Config {
	if c.BurstN == 0 {
		c.BurstN = 300
	}
	if c.Bursts == 0 {
		c.Bursts = 10
	}
	if c.ProfileRuns == 0 {
		c.ProfileRuns = 2000
	}
	if c.InitPolls == 0 {
		c.InitPolls = 6
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
	c.Sampler = reducedSampler
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
	return findCell(r.Cells, func(c EX7Cell) bool { return c.Arm == arm })
}

// RunEX7 executes EX-7.
func RunEX7(cfg EX7Config) (EX7Result, error) {
	cfg = cfg.withDefaults()
	res := EX7Result{Workload: favouriteWorkload}
	for _, arm := range DefaultEX7Arms() {
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
	rt.EnablePassiveCharacterization(ex7PassiveWindow)
	rcfg := arm.Refresh
	rcfg.Zones = append([]string(nil), hopZones...)
	rcfg.Polls = ex7RefreshPolls
	m, err := rt.EnableRefresh(rcfg)
	if err != nil {
		return EX7Cell{}, err
	}
	cell := EX7Cell{Arm: arm.Label}
	err = rt.Do(func(p *sim.Proc) error {
		defer m.Stop()
		target, err := hybridFavourite(rt, p, cfg.InitPolls, cfg.ProfileRuns)
		if err != nil {
			return err
		}
		cell.TargetAZ = target
		fast := rt.Perf().Kinds(favouriteWorkload)
		if len(fast) == 0 {
			return fmt.Errorf("no perf observations for %s", favouriteWorkload)
		}
		fastKind := fast[0]
		cell.FastKind = fastKind.String()

		// Poison the favorite — one hard regime change at the start of
		// the span — then start the maintenance loop and route through
		// the drift.
		span := time.Duration(cfg.Bursts+1) * ex7BurstEvery
		if _, err := rt.Chaos().Inject(chaos.Fault{
			Kind:      chaos.DriftBurst,
			AZ:        target,
			Start:     time.Minute,
			Duration:  span,
			Magnitude: ex7DriftMagnitude,
			Step:      ex7DriftStep,
			Every:     ex7DriftEvery,
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
			p.Sleep(ex7BurstEvery)
			r, err := rt.Run(p, router.BurstSpec{
				Strategy:   router.Regional{},
				Workload:   favouriteWorkload,
				N:          cfg.BurstN,
				Candidates: hopZones,
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
