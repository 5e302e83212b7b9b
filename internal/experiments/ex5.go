package experiments

import (
	"fmt"
	"sort"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/cpu"
	"skyfaas/internal/router"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/stats"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/workload"
)

// EX5Config parameterizes EX-5 (performance enhancement by smart routing:
// Figs. 9-11 and the headline savings).
type EX5Config struct {
	Seed uint64
	// ProfileRuns and Days, when positive, override the scale's profiling
	// executions per workload per zone (skybench -profile-runs) and its
	// evaluation span (skybench -days).
	ProfileRuns int
	Days        int
	reduced     bool
}

// Reduced returns c at benchmark scale.
func (c EX5Config) Reduced() EX5Config { c.reduced = true; return c }

// ex5Preset is one scale of EX-5.
type ex5Preset struct {
	// profileRuns is per-workload-per-zone profiling executions.
	profileRuns int
	// days is the evaluation span and burstN the invocations per burst.
	days, burstN int
	// refreshPolls is the daily characterization depth.
	refreshPolls int
	// workloads are evaluated; both scales include zipper (Fig. 10) and
	// logistic_regression (Fig. 11).
	workloads []workload.ID
	sampler   sampler.Config
}

var (
	// ex5Full is the paper's two weeks of 1,000-invocation bursts over all
	// 12 workloads, refreshed daily at its 95%-accuracy budget of 6 polls.
	// The paper profiled 10,000 runs; 2,000 pin per-CPU means to well
	// under 1% standard error at a fraction of the compute.
	ex5Full = ex5Preset{
		profileRuns: 2000, days: 14, burstN: 1000, refreshPolls: 6,
		workloads: workload.IDs(),
	}
	// ex5Reduced is four days of three workloads.
	ex5Reduced = ex5Preset{
		profileRuns: 450, days: 4, burstN: 200, refreshPolls: 3,
		workloads: []workload.ID{workload.Zipper, workload.LogisticRegression, workload.GraphBFS},
		sampler:   reducedSampler,
	}
)

// StrategyDay is one day's cost under one strategy.
type StrategyDay struct {
	Day       int
	CostUSD   float64
	RetryFrac float64
	AZ        string
}

// SavingsSeries compares a strategy's daily costs against a baseline.
type SavingsSeries struct {
	Strategy string
	Days     []StrategyDay
	Baseline []StrategyDay
}

// Cumulative returns 1 - totalCost/totalBaselineCost.
func (s SavingsSeries) Cumulative() float64 {
	var cost, base float64
	for _, d := range s.Days {
		cost += d.CostUSD
	}
	for _, d := range s.Baseline {
		base += d.CostUSD
	}
	if base == 0 {
		return 0
	}
	return 1 - cost/base
}

// MaxDaily returns the best single-day savings.
func (s SavingsSeries) MaxDaily() float64 {
	best := 0.0
	for i := range s.Days {
		if i >= len(s.Baseline) || s.Baseline[i].CostUSD == 0 {
			continue
		}
		v := 1 - s.Days[i].CostUSD/s.Baseline[i].CostUSD
		if v > best {
			best = v
		}
	}
	return best
}

// MaxRetryFrac returns the highest daily retry fraction.
func (s SavingsSeries) MaxRetryFrac() float64 {
	best := 0.0
	for _, d := range s.Days {
		if d.RetryFrac > best {
			best = d.RetryFrac
		}
	}
	return best
}

// EX5Result carries Figs. 9-11 and the headline aggregate.
type EX5Result struct {
	// NormalizedPerf is Fig. 9: per-workload runtime by CPU relative to
	// the 2.5 GHz Xeon, as *learned* by profiling.
	NormalizedPerf map[workload.ID]map[cpu.Kind]float64
	ProfileCostUSD float64

	// ZipperRetrySlow / ZipperFocusFastest are Fig. 10 (fixed zone).
	ZipperAZ           string
	ZipperRetrySlow    SavingsSeries
	ZipperFocusFastest SavingsSeries

	// LogRegHybrid is Fig. 11 (hybrid region hopping + retries vs the
	// fixed us-west-1b baseline).
	LogRegHybrid SavingsSeries

	// HybridByWorkload is the headline: cumulative hybrid savings per
	// workload over the whole span.
	HybridByWorkload map[workload.ID]SavingsSeries
	AvgHybridSavings float64
	StdHybridSavings float64
	BestWorkload     workload.ID
	BestSavings      float64

	// SamplingSpendUSD is the total characterization spend of the span
	// (the paper reports $2.80).
	SamplingSpendUSD float64
}

// RunEX5 executes EX-5.
func RunEX5(c EX5Config) (EX5Result, error) {
	cfg := scaled(c.reduced, ex5Full, ex5Reduced)
	if c.ProfileRuns > 0 {
		cfg.profileRuns = c.ProfileRuns
	}
	if c.Days > 0 {
		cfg.days = c.Days
	}
	res := EX5Result{
		NormalizedPerf:   make(map[workload.ID]map[cpu.Kind]float64, len(cfg.workloads)),
		ZipperAZ:         baselineAZ,
		HybridByWorkload: make(map[workload.ID]SavingsSeries, len(cfg.workloads)),
	}
	world := core.Config{Seed: c.Seed, SamplerCfg: cfg.sampler, CloudOpts: cloudsim.Options{HorizonDays: cfg.days + 3}}
	err := inWorld(world, func(rt *core.Runtime, p *sim.Proc) error {
		// Step 1 — baseline profiling (Fig. 9) over EX-4's five zones.
		profileCost, err := rt.ProfileWorkloads(p, cfg.workloads, EX4Zones(), cfg.profileRuns)
		if err != nil {
			return err
		}
		res.ProfileCostUSD = profileCost
		for _, w := range cfg.workloads {
			res.NormalizedPerf[w] = rt.Perf().Normalized(w)
		}
		// Instances from profiling expire before routing starts.
		p.Sleep(rt.Cloud().Options().KeepAlive + time.Minute)

		series := make(map[workload.ID]*SavingsSeries, len(cfg.workloads))
		for _, w := range cfg.workloads {
			series[w] = &SavingsSeries{Strategy: "hybrid"}
		}
		zipSlow := &SavingsSeries{Strategy: "retry-slow"}
		zipFocus := &SavingsSeries{Strategy: "focus-fastest"}

		// Bursts are separated by more than the keep-alive so no strategy
		// inherits another's warm instances: a focus-fastest burst leaves
		// behind a pool of fast-CPU-only instances that would silently
		// flatter whatever runs next.
		keepAlive := rt.Cloud().Options().KeepAlive
		burst := func(day int, strat router.Strategy, w workload.ID) (StrategyDay, error) {
			r, err := rt.Run(p, router.BurstSpec{
				Strategy:   strat,
				Workload:   w,
				N:          cfg.burstN,
				Candidates: hopZones,
			})
			if err != nil {
				return StrategyDay{}, err
			}
			p.Sleep(keepAlive + time.Minute)
			return StrategyDay{Day: day, CostUSD: r.CostUSD, RetryFrac: r.RetryFrac(), AZ: r.AZ}, nil
		}

		// Step 2 — the two-week routed evaluation.
		for day := 0; day < cfg.days; day++ {
			cost, err := rt.Refresh(p, hopZones, cfg.refreshPolls)
			if err != nil {
				return err
			}
			res.SamplingSpendUSD += cost

			for _, w := range cfg.workloads {
				base, err := burst(day, router.Baseline{AZ: baselineAZ}, w)
				if err != nil {
					return err
				}
				hyb, err := burst(day, router.Hybrid{}, w)
				if err != nil {
					return err
				}
				s := series[w]
				s.Baseline = append(s.Baseline, base)
				s.Days = append(s.Days, hyb)

				if w == workload.Zipper {
					slow, err := burst(day, router.RetrySlow{AZ: baselineAZ}, w)
					if err != nil {
						return err
					}
					focus, err := burst(day, router.FocusFastest{AZ: baselineAZ}, w)
					if err != nil {
						return err
					}
					zipSlow.Baseline = append(zipSlow.Baseline, base)
					zipSlow.Days = append(zipSlow.Days, slow)
					zipFocus.Baseline = append(zipFocus.Baseline, base)
					zipFocus.Days = append(zipFocus.Days, focus)
				}
			}
			if day < cfg.days-1 {
				p.Sleep(22 * time.Hour)
			}
		}

		for w, s := range series {
			res.HybridByWorkload[w] = *s
		}
		res.ZipperRetrySlow = *zipSlow
		res.ZipperFocusFastest = *zipFocus
		res.LogRegHybrid = res.HybridByWorkload[workload.LogisticRegression]
		return nil
	})
	if err != nil {
		return EX5Result{}, err
	}

	// Aggregate in workload order: map iteration would randomize both the
	// floating-point sum and best-workload tie-breaking across runs.
	var savings []float64
	for _, w := range workload.IDs() {
		s, ok := res.HybridByWorkload[w]
		if !ok {
			continue
		}
		v := s.Cumulative()
		savings = append(savings, v)
		if v > res.BestSavings {
			res.BestSavings = v
			res.BestWorkload = w
		}
	}
	res.AvgHybridSavings = stats.Mean(savings)
	res.StdHybridSavings = stats.StdDev(savings)
	return res, nil
}

// Render produces the Figs. 9-11 style report.
func (r EX5Result) Render() string {
	// Fig. 9.
	kinds := []cpu.Kind{cpu.Xeon25, cpu.Xeon29, cpu.Xeon30, cpu.EPYC}
	t := tablefmt.New("workload", "2.5GHz", "2.9GHz", "3.0GHz", "EPYC")
	ids := make([]workload.ID, 0, len(r.NormalizedPerf))
	for w := range r.NormalizedPerf {
		ids = append(ids, w)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, w := range ids {
		row := []any{w.String()}
		for _, k := range kinds {
			if v, ok := r.NormalizedPerf[w][k]; ok {
				row = append(row, fmt.Sprintf("%.2f", v))
			} else {
				row = append(row, "-")
			}
		}
		t.Row(row...)
	}
	out := fmt.Sprintf("EX-5 / Fig. 9 — learned runtime by CPU, normalized to 2.5GHz (profiling cost %s)\n",
		tablefmt.USD(r.ProfileCostUSD)) + t.String()

	// Fig. 10.
	t2 := tablefmt.New("day", "baseline", "retry-slow", "focus-fastest", "focus retryFrac")
	for i := range r.ZipperFocusFastest.Days {
		t2.Row(i+1,
			tablefmt.USD(r.ZipperFocusFastest.Baseline[i].CostUSD),
			tablefmt.USD(r.ZipperRetrySlow.Days[i].CostUSD),
			tablefmt.USD(r.ZipperFocusFastest.Days[i].CostUSD),
			tablefmt.Pct(r.ZipperFocusFastest.Days[i].RetryFrac))
	}
	out += fmt.Sprintf("\nEX-5 / Fig. 10 — zipper on %s\n", r.ZipperAZ) + t2.String()
	out += fmt.Sprintf("cumulative savings: retry-slow %s, focus-fastest %s (max daily %s, max retried %s)\n",
		tablefmt.Pct(r.ZipperRetrySlow.Cumulative()),
		tablefmt.Pct(r.ZipperFocusFastest.Cumulative()),
		tablefmt.Pct(r.ZipperFocusFastest.MaxDaily()),
		tablefmt.Pct(r.ZipperFocusFastest.MaxRetryFrac()))

	// Fig. 11.
	t3 := tablefmt.New("day", "baseline(us-west-1b)", "hybrid", "zone")
	for i := range r.LogRegHybrid.Days {
		t3.Row(i+1,
			tablefmt.USD(r.LogRegHybrid.Baseline[i].CostUSD),
			tablefmt.USD(r.LogRegHybrid.Days[i].CostUSD),
			r.LogRegHybrid.Days[i].AZ)
	}
	out += "\nEX-5 / Fig. 11 — logistic_regression hybrid region hopping\n" + t3.String()
	out += fmt.Sprintf("cumulative savings %s, max daily %s\n",
		tablefmt.Pct(r.LogRegHybrid.Cumulative()), tablefmt.Pct(r.LogRegHybrid.MaxDaily()))

	// Headline.
	t4 := tablefmt.New("workload", "hybrid cumulative savings")
	for _, w := range ids {
		if s, ok := r.HybridByWorkload[w]; ok {
			t4.Row(w.String(), tablefmt.Pct(s.Cumulative()))
		}
	}
	out += "\nEX-5 — headline hybrid savings per workload\n" + t4.String()
	out += fmt.Sprintf("avg %s ± %.2f pp; best %s (%s); sampling spend %s\n",
		tablefmt.Pct(r.AvgHybridSavings), r.StdHybridSavings*100,
		tablefmt.Pct(r.BestSavings), r.BestWorkload, tablefmt.USD(r.SamplingSpendUSD))
	return out
}
