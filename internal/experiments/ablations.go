package experiments

import (
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/faas"
	"skyfaas/internal/router"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/workload"
)

// This file holds the ablation studies DESIGN.md §6 calls out: they justify
// the design choices of the reproduced system rather than regenerate a
// paper figure.

// StudyConfig configures the studies that sit beside the experiments: the
// ablations here and the §4.6 trade-off in tradeoff.go. They run at one
// scale, so Reduced is the identity; it lets cmd/skybench drive them like
// any experiment.
type StudyConfig struct{ Seed uint64 }

// Reduced returns c unchanged.
func (c StudyConfig) Reduced() StudyConfig { return c }

// AblationsResult is the three ablation studies on one seed.
type AblationsResult struct {
	Fanout  AblationFanoutResult
	Passive AblationPassiveResult
	Stale   AblationStaleResult
}

// RunAblations runs the three ablation studies.
func RunAblations(cfg StudyConfig) (AblationsResult, error) {
	var res AblationsResult
	var err error
	if res.Fanout, err = RunAblationFanout(cfg.Seed); err != nil {
		return AblationsResult{}, err
	}
	if res.Passive, err = RunAblationPassive(cfg.Seed); err != nil {
		return AblationsResult{}, err
	}
	if res.Stale, err = RunAblationStaleProfile(cfg.Seed); err != nil {
		return AblationsResult{}, err
	}
	return res, nil
}

// table lists every quantity of EXPERIMENTS.md's ablation table, one a row.
func (r AblationsResult) table() *tablefmt.Table {
	t := tablefmt.New("study", "arm", "quantity", "value")
	t.Row("fan-out", "tree", "unique FIs", r.Fanout.TreeUniqueFIs)
	t.Row("fan-out", "tree", "client calls", r.Fanout.TreeClientCalls)
	t.Row("fan-out", "flat", "unique FIs", r.Fanout.FlatUniqueFIs)
	t.Row("fan-out", "flat", "client calls", r.Fanout.FlatClientCalls)
	t.Row("characterization", "polled", "savings %", r.Passive.PolledSavings*100)
	t.Row("characterization", "polled", "sampling USD", r.Passive.PolledSamplingUSD)
	t.Row("characterization", "passive", "savings %", r.Passive.PassiveSavings*100)
	t.Row("characterization", "passive", "sampling USD", r.Passive.PassiveSamplingUSD)
	t.Row("profile age", "fresh daily", "savings %", r.Stale.FreshSavings*100)
	t.Row("profile age", "frozen day 1", "savings %", r.Stale.StaleSavings*100)
	return t
}

// Render produces the ablation table.
func (r AblationsResult) Render() string {
	return "Ablations — tree vs flat fan-out, polled vs passive characterization, fresh vs stale profile\n" + r.table().String()
}

// WriteCSV emits ablations.csv.
func (r AblationsResult) WriteCSV(dir string) error {
	return writeCSVFile(dir, "ablations.csv", r.table())
}

// AblationFanoutResult compares the recursive-tree fan-out against a flat
// client fan-out at equal request counts.
type AblationFanoutResult struct {
	// TreeUniqueFIs / TreeClientCalls: one tree poll's coverage and the
	// concurrent requests the client itself had to hold open.
	TreeUniqueFIs   int
	TreeClientCalls int
	// FlatUniqueFIs / FlatClientCalls: the same request volume issued as
	// individual client calls.
	FlatUniqueFIs   int
	FlatClientCalls int
}

// RunAblationFanout measures both fan-out shapes in a fresh zone each.
func RunAblationFanout(seed uint64) (AblationFanoutResult, error) {
	cfg := sampler.Config{
		Endpoints: 4, PollSize: 222, Branch: 10,
		InterPollPause: 500 * time.Millisecond,
	}
	rt, err := newRuntime(seed, 2, cfg)
	if err != nil {
		return AblationFanoutResult{}, err
	}
	const az = "us-west-1a"
	var res AblationFanoutResult
	err = rt.Do(func(p *sim.Proc) error {
		if err := rt.EnsureSamplerEndpoints(az); err != nil {
			return err
		}
		s := rt.Sampler()

		// Tree fan-out: the client only issues the root requests.
		tree := s.Poll(p, az, 0)
		res.TreeUniqueFIs = uniqueFIs(tree)
		res.TreeClientCalls = s.Config().PollSize / (1 + s.Config().Branch + s.Config().Branch*s.Config().Branch)

		// Let the tree's instances expire so the flat poll starts cold.
		p.Sleep(rt.Cloud().Options().KeepAlive + time.Minute)

		// Flat fan-out: the client holds every request itself.
		client := rt.Client()
		responses := client.InvokeBatch(p, faas.Call{
			AZ:       az,
			Function: flatEndpointName(s, az),
			Work:     cloudsim.SleepBehavior{D: s.Config().Sleep},
		}, tree.Requested)
		seen := make(map[string]struct{}, len(responses))
		for _, r := range responses {
			if r.OK() {
				seen[r.FI] = struct{}{}
			}
		}
		res.FlatUniqueFIs = len(seen)
		res.FlatClientCalls = tree.Requested
		return nil
	})
	if err != nil {
		return AblationFanoutResult{}, err
	}
	return res, nil
}

// flatEndpointName picks a sampler endpoint not used by the tree poll.
func flatEndpointName(s *sampler.Sampler, az string) string {
	// Endpoint 1 (the tree used endpoint 0).
	return flatName(s.Config().Prefix, az)
}

func flatName(prefix, az string) string {
	return prefix + "-" + az + "-001"
}

func uniqueFIs(pr sampler.PollResult) int {
	seen := make(map[string]struct{}, len(pr.Reports))
	for _, rep := range pr.Reports {
		seen[rep.UUID] = struct{}{}
	}
	return len(seen)
}

// routingArm is one arm of a routing ablation: a fresh world in which the
// workload is profiled over hopZones and then, on each day, refresh runs
// and a baseline burst on baselineAZ is followed by a hybrid burst over all
// three zones. refresh is where the arms of an ablation differ.
type routingArm struct {
	days        int
	workload    workload.ID
	profileRuns int
	storeTTL    time.Duration          // 0 = core's default
	setup       func(rt *core.Runtime) // optional, on the fresh runtime
	refresh     func(rt *core.Runtime, p *sim.Proc, day int) error
}

// savings runs the arm and returns hybrid's cumulative savings versus the
// baseline.
func (a routingArm) savings(seed uint64) (float64, error) {
	rt, err := core.New(core.Config{
		Seed:       seed,
		Epoch:      defaultEpoch,
		SamplerCfg: reducedSampler,
		CloudOpts:  cloudsim.Options{HorizonDays: a.days + 2},
		StoreTTL:   a.storeTTL,
		SkipMesh:   true,
	})
	if err != nil {
		return 0, err
	}
	if a.setup != nil {
		a.setup(rt)
	}
	var baseTotal, hybTotal float64
	err = rt.Do(func(p *sim.Proc) error {
		if _, err := rt.ProfileWorkloads(p, []workload.ID{a.workload}, hopZones, a.profileRuns); err != nil {
			return err
		}
		p.Sleep(6 * time.Minute)
		for day := 0; day < a.days; day++ {
			if err := a.refresh(rt, p, day); err != nil {
				return err
			}
			base, err := rt.Run(p, router.BurstSpec{
				Strategy: router.Baseline{AZ: baselineAZ}, Workload: a.workload,
				N: 200, Candidates: hopZones,
			})
			if err != nil {
				return err
			}
			p.Sleep(6 * time.Minute)
			hyb, err := rt.Run(p, router.BurstSpec{
				Strategy: router.Hybrid{}, Workload: a.workload,
				N: 200, Candidates: hopZones,
			})
			if err != nil {
				return err
			}
			baseTotal += base.CostUSD
			hybTotal += hyb.CostUSD
			if day < a.days-1 {
				p.Sleep(22 * time.Hour)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return 1 - hybTotal/baseTotal, nil
}

// AblationPassiveResult compares routing on polled characterizations
// against free passive ones built from the traffic itself (§4.6).
type AblationPassiveResult struct {
	// PolledSavings / PolledSamplingUSD: hybrid savings and the polling
	// spend that enabled them.
	PolledSavings     float64
	PolledSamplingUSD float64
	// PassiveSavings / PassiveSamplingUSD: the same with zero-cost passive
	// characterization.
	PassiveSavings     float64
	PassiveSamplingUSD float64
}

// RunAblationPassive routes a workload for several days over volatile
// zones twice — once refreshing characterizations by polling, once
// passively from the traffic — on identical worlds.
func RunAblationPassive(seed uint64) (AblationPassiveResult, error) {
	var res AblationPassiveResult
	arm := routingArm{days: 4, workload: workload.MathService, profileRuns: 600}
	arm.refresh = func(rt *core.Runtime, p *sim.Proc, _ int) error {
		cost, err := rt.Refresh(p, hopZones, 3)
		res.PolledSamplingUSD += cost
		return err
	}
	var err error
	if res.PolledSavings, err = arm.savings(seed); err != nil {
		return AblationPassiveResult{}, err
	}
	arm.setup = func(rt *core.Runtime) { rt.EnablePassiveCharacterization(24 * time.Hour) }
	arm.refresh = func(rt *core.Runtime, _ *sim.Proc, _ int) error {
		rt.RefreshPassive(hopZones, 100)
		return nil
	}
	if res.PassiveSavings, err = arm.savings(seed); err != nil {
		return AblationPassiveResult{}, err
	}
	return res, nil
}

// AblationStaleResult compares routing on fresh daily characterizations
// against a frozen day-1 profile.
type AblationStaleResult struct {
	FreshSavings float64
	StaleSavings float64
}

// RunAblationStaleProfile routes a workload for several days over volatile
// zones twice — refreshing characterizations daily versus freezing day 1 —
// and reports cumulative savings versus the fixed-zone baseline in each
// mode. Both runs replay the identical world (same seed).
func RunAblationStaleProfile(seed uint64) (AblationStaleResult, error) {
	run := func(refreshDaily bool) (float64, error) {
		return routingArm{
			days: 5, workload: workload.Zipper, profileRuns: 450,
			storeTTL: 1000 * time.Hour, // stale mode relies on old entries staying visible
			refresh: func(rt *core.Runtime, p *sim.Proc, day int) error {
				if day > 0 && !refreshDaily {
					return nil
				}
				_, err := rt.Refresh(p, hopZones, 3)
				return err
			},
		}.savings(seed)
	}
	fresh, err := run(true)
	if err != nil {
		return AblationStaleResult{}, err
	}
	stale, err := run(false)
	if err != nil {
		return AblationStaleResult{}, err
	}
	return AblationStaleResult{FreshSavings: fresh, StaleSavings: stale}, nil
}
