package experiments

import (
	"fmt"
	"time"

	"skyfaas/internal/chaos"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
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
			Strategy:   router.StrategySpec{Name: "hybrid"},
			Resilience: &router.Resilience{Hedge: true}},
	}
}

// EX6Scenarios lists the chaos scenarios each arm faces, calm first.
func EX6Scenarios() []string {
	return []string{"calm", "throttle-storm", "zone-outage", "degraded"}
}

// EX6Config parameterizes EX-6.
type EX6Config struct {
	Seed uint64
	// Arms, when set, replaces the policy ladder DefaultEX6Arms (skybench
	// -ex6-strategies).
	Arms    []EX6Arm
	reduced bool
}

// Reduced returns c at benchmark scale.
func (c EX6Config) Reduced() EX6Config { c.reduced = true; return c }

// ex6Preset is one scale of EX-6.
type ex6Preset struct {
	// burstN is invocations per burst.
	burstN int
	// profileRuns is per-zone profiling executions and refreshPolls the
	// characterization depth.
	profileRuns, refreshPolls int
	sampler                   sampler.Config
}

var (
	// ex6Full bursts 400 invocations: comfortably under the 1,000-slot
	// per-region concurrency quota even after the hybrid strategy's
	// CPU-retry amplification, so calm cells measure routing, not quota
	// pressure.
	ex6Full = ex6Preset{burstN: 400, profileRuns: 2000, refreshPolls: 6}
	// ex6Reduced is the same ladder on smaller bursts and profiles.
	ex6Reduced = ex6Preset{burstN: 150, profileRuns: 450, refreshPolls: 3, sampler: reducedSampler}
)

// ex6StormRate is the throttle-storm rejection probability: three bounded
// attempts then survive ~58% of the time.
const ex6StormRate = 0.75

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
	return findCell(r.Cells, func(c EX6Cell) bool { return c.Scenario == scenario && c.Arm == arm })
}

// scenarioFor builds the chaos scenario aimed at az ("calm" = none).
func scenarioFor(name, az string) (chaos.Scenario, bool, error) {
	switch name {
	case "calm":
		return chaos.Scenario{}, false, nil
	case "throttle-storm":
		return chaos.ThrottleStormScenario(az, ex6StormRate), true, nil
	default:
		sc, ok := chaos.ScenarioByName(name, az)
		if !ok {
			return chaos.Scenario{}, false, fmt.Errorf("ex6: unknown scenario %q", name)
		}
		return sc, true, nil
	}
}

// RunEX6 executes EX-6.
func RunEX6(c EX6Config) (EX6Result, error) {
	cfg := scaled(c.reduced, ex6Full, ex6Reduced)
	arms := c.Arms
	if len(arms) == 0 {
		arms = DefaultEX6Arms()
	}
	res := EX6Result{Workload: favouriteWorkload}
	for _, scenario := range EX6Scenarios() {
		for _, arm := range arms {
			cell, err := runEX6Cell(c.Seed, cfg, scenario, arm)
			if err != nil {
				return EX6Result{}, fmt.Errorf("ex6: %s/%s: %w", scenario, arm.Label, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// favouriteWorkload is the workload EX-6 and EX-7 route: zipper, the
// workload of EX-5's fixed-zone comparison (Fig. 10).
const favouriteWorkload = workload.Zipper

// hybridFavourite is the prelude EX-6 and EX-7 share on a fresh world:
// characterize hopZones polls deep, profile favouriteWorkload over them,
// let the instances expire, probe which zone the hybrid strategy prefers,
// and let the probe's instances expire too. It returns that zone, where
// each experiment then aims its chaos — a fault on a zone nobody routes
// to proves nothing.
func hybridFavourite(rt *core.Runtime, p *sim.Proc, polls, profileRuns int) (string, error) {
	if _, err := rt.Refresh(p, hopZones, polls); err != nil {
		return "", err
	}
	if _, err := rt.ProfileWorkloads(p, []workload.ID{favouriteWorkload}, hopZones, profileRuns); err != nil {
		return "", err
	}
	cooldown := rt.Cloud().Options().KeepAlive + time.Minute
	p.Sleep(cooldown)
	probe, err := rt.Run(p, router.BurstSpec{
		Strategy:   router.Hybrid{},
		Workload:   favouriteWorkload,
		N:          50,
		Candidates: hopZones,
	})
	if err != nil {
		return "", err
	}
	p.Sleep(cooldown)
	return probe.AZ, nil
}

// runEX6Cell measures one (scenario, arm) pair in a fresh runtime, so
// breaker state, drift damage, and warm pools never leak between cells.
func runEX6Cell(seed uint64, cfg ex6Preset, scenario string, arm EX6Arm) (EX6Cell, error) {
	cell := EX6Cell{Scenario: scenario, Arm: arm.Label}
	world := core.Config{Seed: seed, SamplerCfg: cfg.sampler, CloudOpts: cloudsim.Options{HorizonDays: 2}}
	err := inWorld(world, func(rt *core.Runtime, p *sim.Proc) error {
		target, err := hybridFavourite(rt, p, cfg.refreshPolls, cfg.profileRuns)
		if err != nil {
			return err
		}
		cell.TargetAZ = target
		sc, armed, err := scenarioFor(scenario, target)
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
			spec.AZ = target
		}
		strat, err := router.Build(spec,
			router.WithLocator(router.NewZoneLocator(rt.Cloud())),
			router.WithPricer(router.NewZonePricer(rt.Cloud())))
		if err != nil {
			return err
		}
		r, err := rt.Run(p, router.BurstSpec{
			Strategy:   strat,
			Workload:   favouriteWorkload,
			N:          cfg.burstN,
			Candidates: hopZones,
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
