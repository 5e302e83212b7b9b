package experiments

import (
	"fmt"
	"time"

	"skyfaas/internal/chaos"
	"skyfaas/internal/faas"
	"skyfaas/internal/router"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/workload"
)

// EX-6 — resilience under injected faults. The paper's routing evaluation
// (EX-5) assumes a healthy sky; EX-6 asks what each routing policy does
// when a zone misbehaves. Every (scenario, arm) cell runs in its own
// runtime: characterize and profile, find the zone the hybrid strategy
// prefers, aim the chaos scenario at exactly that zone, then run one burst
// and measure how much of it survives.

// EX6Arm is one routing policy under test.
type EX6Arm struct {
	// Label names the arm in tables and CSVs.
	Label string
	// Strategy is built through the registry; an empty AZ on pinned
	// strategies is filled with the chaos target zone.
	Strategy router.StrategySpec
	// Resilience configures retries/breaker/failover (nil = legacy
	// retry-forever routing, which never abandons and so hides failures).
	Resilience *router.Resilience
}

// DefaultEX6Arms returns the canonical policy ladder: a pinned baseline
// with bounded retries, hybrid routing without a breaker, hybrid with
// breaker + failover, and hybrid with breaker + failover + hedging.
func DefaultEX6Arms() []EX6Arm {
	return []EX6Arm{
		{Label: "baseline",
			Strategy:   router.StrategySpec{Name: "baseline"},
			Resilience: &router.Resilience{NoBreaker: true}},
		{Label: "hybrid",
			Strategy:   router.StrategySpec{Name: "hybrid"},
			Resilience: &router.Resilience{NoBreaker: true}},
		{Label: "hybrid+breaker",
			Strategy:   router.StrategySpec{Name: "hybrid"},
			Resilience: router.DefaultResilience()},
		{Label: "hybrid+hedge",
			Strategy: router.StrategySpec{Name: "hybrid"},
			Resilience: &router.Resilience{
				Failover: true,
				Hedge:    faas.HedgePolicy{After: 2 * time.Second, Max: 1},
			}},
	}
}

// EX6Scenarios lists the chaos scenarios each arm faces, calm first.
func EX6Scenarios() []string {
	return []string{"calm", "throttle-storm", "zone-outage", "degraded"}
}

// EX6Config parameterizes EX-6.
type EX6Config struct {
	Seed uint64
	// HopZones are the candidate zones (default: EX-5's three).
	HopZones []string
	// Workload under test (default zipper).
	Workload workload.ID
	// BurstN is invocations per burst (default 400 — comfortably under the
	// 1,000-slot per-region concurrency quota even after the hybrid
	// strategy's CPU-retry amplification, so calm cells measure routing,
	// not quota pressure).
	BurstN int
	// ProfileRuns is per-zone profiling executions (default 2,000).
	ProfileRuns int
	// RefreshPolls is the characterization depth (default 6).
	RefreshPolls int
	// StormRate is the throttle-storm rejection probability (default 0.75:
	// three bounded attempts then survive ~58% of the time).
	StormRate float64
	// Arms overrides the policy ladder (default DefaultEX6Arms).
	Arms []EX6Arm
	// Scenarios overrides the chaos list (default EX6Scenarios).
	Scenarios []string
	// Sampler overrides the polling configuration.
	Sampler sampler.Config
}

func (c EX6Config) withDefaults() EX6Config {
	if len(c.HopZones) == 0 {
		c.HopZones = []string{"us-west-1a", "us-west-1b", "sa-east-1a"}
	}
	if c.Workload == 0 {
		c.Workload = workload.Zipper
	}
	if c.BurstN == 0 {
		c.BurstN = 400
	}
	if c.ProfileRuns == 0 {
		c.ProfileRuns = 2000
	}
	if c.RefreshPolls == 0 {
		c.RefreshPolls = 6
	}
	if c.StormRate == 0 {
		c.StormRate = 0.75
	}
	if len(c.Arms) == 0 {
		c.Arms = DefaultEX6Arms()
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = EX6Scenarios()
	}
	return c
}

// Reduced returns a benchmark-scale EX-6.
func (c EX6Config) Reduced() EX6Config {
	c = c.withDefaults()
	c.BurstN = 150
	c.ProfileRuns = 450
	c.RefreshPolls = 3
	c.Sampler = sampler.Config{
		Endpoints: 60, PollSize: 222, Branch: 10,
		InterPollPause: 500 * time.Millisecond,
	}
	return c
}

// EX6Cell is one (scenario, arm) measurement.
type EX6Cell struct {
	Scenario string
	Arm      string
	// TargetAZ is the zone the scenario poisoned (the hybrid favorite).
	TargetAZ string
	// AZ is the zone the burst finished on.
	AZ          string
	SuccessRate float64
	Completed   int
	Abandoned   int
	Attempts    int
	Failovers   int
	Hedges      int
	CostUSD     float64
	MeanRunMS   float64
	ElapsedMS   float64
}

// EX6Result carries the full scenario × arm grid, scenario-major in
// EX6Scenarios order.
type EX6Result struct {
	Workload workload.ID
	Cells    []EX6Cell
}

// Cell returns the (scenario, arm) measurement.
func (r EX6Result) Cell(scenario, arm string) (EX6Cell, bool) {
	for _, c := range r.Cells {
		if c.Scenario == scenario && c.Arm == arm {
			return c, true
		}
	}
	return EX6Cell{}, false
}

// scenarioFor builds the chaos scenario aimed at az ("calm" = none).
func scenarioFor(name, az string, stormRate float64) (chaos.Scenario, bool, error) {
	switch name {
	case "calm":
		return chaos.Scenario{}, false, nil
	case "throttle-storm":
		return chaos.ThrottleStormScenario(az, stormRate), true, nil
	default:
		sc, ok := chaos.ScenarioByName(name, az)
		if !ok {
			return chaos.Scenario{}, false, fmt.Errorf("ex6: unknown scenario %q", name)
		}
		return sc, true, nil
	}
}

// RunEX6 executes EX-6.
func RunEX6(cfg EX6Config) (EX6Result, error) {
	cfg = cfg.withDefaults()
	res := EX6Result{Workload: cfg.Workload}
	for _, scenario := range cfg.Scenarios {
		for _, arm := range cfg.Arms {
			cell, err := runEX6Cell(cfg, scenario, arm)
			if err != nil {
				return EX6Result{}, fmt.Errorf("ex6: %s/%s: %w", scenario, arm.Label, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// runEX6Cell measures one (scenario, arm) pair in a fresh runtime, so
// breaker state, drift damage, and warm pools never leak between cells.
func runEX6Cell(cfg EX6Config, scenario string, arm EX6Arm) (EX6Cell, error) {
	rt, err := newRuntime(cfg.Seed, 2, cfg.Sampler)
	if err != nil {
		return EX6Cell{}, err
	}
	cell := EX6Cell{Scenario: scenario, Arm: arm.Label}
	err = rt.Do(func(p *sim.Proc) error {
		if _, err := rt.Refresh(p, cfg.HopZones, cfg.RefreshPolls); err != nil {
			return err
		}
		if _, err := rt.ProfileWorkloads(p, []workload.ID{cfg.Workload}, cfg.HopZones, cfg.ProfileRuns); err != nil {
			return err
		}
		keepAlive := rt.Cloud().Options().KeepAlive
		p.Sleep(keepAlive + time.Minute)

		// Probe which zone hybrid prefers so the chaos lands exactly
		// where smart routing wants to be — a storm on a zone nobody
		// picks proves nothing.
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

		sc, armed, err := scenarioFor(scenario, cell.TargetAZ, cfg.StormRate)
		if err != nil {
			return err
		}
		if armed {
			if _, err := rt.Chaos().InjectScenario(sc); err != nil {
				return err
			}
			// Past every window's onset (zone-outage starts at +1 min)
			// but well inside its span.
			p.Sleep(90 * time.Second)
		}

		spec := arm.Strategy
		if spec.AZ == "" {
			spec.AZ = cell.TargetAZ
		}
		strat, err := router.Build(spec,
			router.WithLocator(router.NewZoneLocator(rt.Cloud())),
			router.WithPricer(router.NewZonePricer(rt.Cloud())))
		if err != nil {
			return err
		}
		r, err := rt.Run(p, router.BurstSpec{
			Strategy:   strat,
			Workload:   cfg.Workload,
			N:          cfg.BurstN,
			Candidates: cfg.HopZones,
			Resilience: arm.Resilience,
		})
		if err != nil {
			return err
		}
		cell.AZ = r.AZ
		cell.SuccessRate = r.SuccessRate()
		cell.Completed = r.Completed
		cell.Abandoned = r.Abandoned
		cell.Attempts = r.Attempts
		cell.Failovers = r.Failovers
		cell.Hedges = r.Hedges
		cell.CostUSD = r.CostUSD
		cell.MeanRunMS = r.MeanRunMS()
		cell.ElapsedMS = float64(r.Elapsed) / float64(time.Millisecond)
		return nil
	})
	if err != nil {
		return EX6Cell{}, err
	}
	return cell, nil
}

// Render produces the scenario × arm report.
func (r EX6Result) Render() string {
	out := fmt.Sprintf("EX-6 — routing resilience under injected faults (%s)\n", r.Workload)
	seen := map[string]bool{}
	var scenarios []string
	for _, c := range r.Cells {
		if !seen[c.Scenario] {
			seen[c.Scenario] = true
			scenarios = append(scenarios, c.Scenario)
		}
	}
	for _, scenario := range scenarios {
		t := tablefmt.New("arm", "success", "completed", "abandoned", "failovers", "hedges", "zone", "cost", "elapsed")
		target := ""
		for _, c := range r.Cells {
			if c.Scenario != scenario {
				continue
			}
			target = c.TargetAZ
			t.Row(c.Arm, tablefmt.Pct(c.SuccessRate), c.Completed, c.Abandoned,
				c.Failovers, c.Hedges, c.AZ, tablefmt.USD(c.CostUSD),
				(time.Duration(c.ElapsedMS) * time.Millisecond).Truncate(10*time.Millisecond).String())
		}
		out += fmt.Sprintf("\nscenario %s (chaos target %s)\n%s", scenario, target, t.String())
	}
	if storm, ok := r.Cell("throttle-storm", "hybrid+breaker"); ok {
		if base, ok := r.Cell("throttle-storm", "baseline"); ok {
			out += fmt.Sprintf("\nheadline: under the throttle storm the breaker+failover policy kept %s of the burst vs the pinned baseline's %s\n",
				tablefmt.Pct(storm.SuccessRate), tablefmt.Pct(base.SuccessRate))
		}
	}
	return out
}

// WriteCSV writes the full grid as one dataset.
func (r EX6Result) WriteCSV(dir string) error {
	t := tablefmt.New("scenario", "arm", "target_az", "final_az", "success_rate",
		"completed", "abandoned", "attempts", "failovers", "hedges",
		"cost_usd", "mean_run_ms", "elapsed_ms")
	for _, c := range r.Cells {
		t.Row(c.Scenario, c.Arm, c.TargetAZ, c.AZ, c.SuccessRate,
			c.Completed, c.Abandoned, c.Attempts, c.Failovers, c.Hedges,
			c.CostUSD, c.MeanRunMS, c.ElapsedMS)
	}
	return writeCSVFile(dir, "ex6_resilience.csv", t)
}
