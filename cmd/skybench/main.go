// Command skybench regenerates the paper's tables and figures on the
// simulated sky.
//
// Usage:
//
//	skybench -ex all                 # every experiment at paper scale
//	skybench -ex ex3,ex5 -scale reduced
//	skybench -ex table1              # Table 1 (workload catalog) only
//	skybench -ex ex5 -seed 7 -profile-runs 10000
//	skybench -ex ablations,tradeoff  # the design studies of EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"skyfaas/internal/experiments"
	"skyfaas/internal/metrics"
	"skyfaas/internal/router"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "skybench:", err)
		os.Exit(1)
	}
}

// benchOpts carries the parsed flags into each experiment runner.
type benchOpts struct {
	seed          uint64
	reduced       bool
	profileRuns   int
	days          int
	csvDir        string
	ex6Strategies string
}

// experiment is one runnable entry. The registry below is the single source
// of truth: the -ex help text, the "all" set, and the dispatch loop are all
// derived from it, so a new experiment registers itself exactly once.
type experiment struct {
	name string
	run  func(o benchOpts) (string, error)
}

// entry registers an experiment: seeded builds its full-scale
// configuration, the entry applies -scale and then flags (the flag
// overrides, nil when it reads none), runs it, writes the -csvdir dataset
// and renders the result. The scale goes first so that a flag overrides
// its preset at either scale.
func entry[C interface{ Reduced() C }, R interface {
	Render() string
	WriteCSV(dir string) error
}](name string, seeded func(seed uint64) C, flags func(C, benchOpts) (C, error), run func(C) (R, error)) experiment {
	return experiment{name, func(o benchOpts) (string, error) {
		c := seeded(o.seed)
		if o.reduced {
			c = c.Reduced()
		}
		if flags != nil {
			var err error
			if c, err = flags(c, o); err != nil {
				return "", err
			}
		}
		res, err := run(c)
		if err != nil {
			return "", err
		}
		if o.csvDir != "" {
			if err := res.WriteCSV(o.csvDir); err != nil {
				return "", err
			}
		}
		return res.Render(), nil
	}}
}

func registry() []experiment {
	return []experiment{
		{"table1", func(benchOpts) (string, error) {
			t := tablefmt.New("Function", "vCPUs", "BaseMS", "Description")
			for _, s := range workload.All() {
				t.Row(s.Name, s.VCPUs, s.BaseMS, s.Description)
			}
			return "Table 1 — workload catalog\n" + t.String(), nil
		}},
		entry("ex1", func(s uint64) experiments.EX1Config { return experiments.EX1Config{Seed: s} }, nil, experiments.RunEX1),
		entry("ex2", func(s uint64) experiments.EX2Config { return experiments.EX2Config{Seed: s} }, nil, experiments.RunEX2),
		entry("ex3", func(s uint64) experiments.EX3Config { return experiments.EX3Config{Seed: s} }, nil, experiments.RunEX3),
		entry("ex4", func(s uint64) experiments.EX4Config { return experiments.EX4Config{Seed: s} }, ex4Flags, experiments.RunEX4),
		entry("ex5", func(s uint64) experiments.EX5Config { return experiments.EX5Config{Seed: s} }, ex5Flags, experiments.RunEX5),
		entry("ex6", func(s uint64) experiments.EX6Config { return experiments.EX6Config{Seed: s} }, ex6Flags, experiments.RunEX6),
		entry("ex7", func(s uint64) experiments.EX7Config { return experiments.EX7Config{Seed: s} }, nil, experiments.RunEX7),
		entry("ex8", func(s uint64) experiments.EX8Config { return experiments.EX8Config{Seed: s} }, nil, experiments.RunEX8),
		entry("ex9", func(s uint64) experiments.EX9Config { return experiments.EX9Config{Seed: s} }, nil, experiments.RunEX9),
		entry("ex10", func(s uint64) experiments.EX10Config { return experiments.EX10Config{Seed: s} }, nil, experiments.RunEX10),
		entry("ex11", func(s uint64) experiments.EX11Config { return experiments.EX11Config{Seed: s} }, ex11Flags, experiments.RunEX11),
		entry("ablations", func(s uint64) experiments.StudyConfig { return experiments.StudyConfig{Seed: s} }, nil, experiments.RunAblations),
		entry("tradeoff", func(s uint64) experiments.StudyConfig { return experiments.StudyConfig{Seed: s} }, nil, experiments.RunRetryTradeoff),
	}
}

func ex4Flags(cfg experiments.EX4Config, o benchOpts) (experiments.EX4Config, error) {
	if o.days > 0 {
		cfg.Rounds = o.days
	}
	return cfg, nil
}

func ex5Flags(cfg experiments.EX5Config, o benchOpts) (experiments.EX5Config, error) {
	if o.days > 0 {
		cfg.Days = o.days
	}
	if o.profileRuns > 0 {
		cfg.ProfileRuns = o.profileRuns
	}
	return cfg, nil
}

// ex6Flags appends one arm per -ex6-strategies name, run with default
// resilience, to the default arms.
func ex6Flags(cfg experiments.EX6Config, o benchOpts) (experiments.EX6Config, error) {
	if o.ex6Strategies == "" {
		return cfg, nil
	}
	cfg.Arms = experiments.DefaultEX6Arms()
	for _, name := range strings.Split(o.ex6Strategies, ",") {
		name = strings.TrimSpace(name)
		// Validate up front so a typo fails with the registry's name
		// listing instead of mid-experiment; the placeholder AZ satisfies
		// pinned strategies and is re-resolved to the chaos target inside
		// each cell.
		if _, err := router.Build(router.StrategySpec{Name: name, AZ: "us-west-1b"}); err != nil {
			return cfg, err
		}
		cfg.Arms = append(cfg.Arms, experiments.EX6Arm{
			Label:      name,
			Strategy:   router.StrategySpec{Name: name},
			Resilience: router.DefaultResilience(),
		})
	}
	return cfg, nil
}

func ex11Flags(cfg experiments.EX11Config, o benchOpts) (experiments.EX11Config, error) {
	if o.profileRuns > 0 {
		cfg.ProfileRuns = o.profileRuns
	}
	return cfg, nil
}

// experimentNames lists the registry in run order.
func experimentNames() []string {
	exps := registry()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}
	return names
}

// exUsage derives the -ex flag's help text from the registry, so the two
// can never drift apart again.
func exUsage() string {
	return "experiments to run: all | " + strings.Join(experimentNames(), ",")
}

func run(args []string) error {
	names := experimentNames()
	fs := flag.NewFlagSet("skybench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	exFlag := fs.String("ex", "all", exUsage())
	ex6Strategies := fs.String("ex6-strategies", "", "extra EX-6 arms: comma-separated strategy names (see router.Names), run with default resilience")
	seed := fs.Uint64("seed", 42, "simulation seed (equal seeds replay exactly)")
	scale := fs.String("scale", "full", "full | reduced")
	profileRuns := fs.Int("profile-runs", 0, "EX-5 profiling executions per workload per zone, and EX-11's warmup profiling runs (0 = the scale's default)")
	days := fs.Int("days", 0, "EX-4/EX-5 evaluation days (0 = the scale's default: the paper's 14 at full scale)")
	csvDir := fs.String("csvdir", "", "also write each figure's dataset as CSV into this directory")
	dumpMetrics := fs.Bool("metrics", false, "dump a Prometheus-text metrics snapshot covering all experiments after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale != "full" && *scale != "reduced" {
		return fmt.Errorf("unknown scale %q", *scale)
	}

	valid := map[string]bool{}
	for _, name := range names {
		valid[name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*exFlag, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !valid[name] {
			return fmt.Errorf("unknown experiment %q (valid: all, %s)", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	all := want["all"]

	o := benchOpts{
		seed:          *seed,
		reduced:       *scale == "reduced",
		profileRuns:   *profileRuns,
		days:          *days,
		csvDir:        *csvDir,
		ex6Strategies: *ex6Strategies,
	}
	for _, e := range registry() {
		if !all && !want[e.name] {
			continue
		}
		start := time.Now()
		out, err := e.run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("==== %s (%s, seed %d, %.1fs) ====\n%s\n", e.name, *scale, *seed, time.Since(start).Seconds(), out)
	}

	if *dumpMetrics {
		// Every runtime the experiments built reported into the process
		// default registry, so one snapshot covers the whole run.
		fmt.Println("==== metrics snapshot ====")
		return metrics.Default().WritePrometheus(os.Stdout)
	}
	return nil
}
