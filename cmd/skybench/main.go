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
	seed        uint64
	reduced     bool
	profileRuns int
	days        int
	csvDir      string
	ex6Arms     []experiments.EX6Arm
}

// experiment is one runnable entry. The registry below is the single source
// of truth: the -ex help text, the "all" set, and the dispatch loop are all
// derived from it, so a new experiment registers itself exactly once.
type experiment struct {
	name string
	run  func(o benchOpts) (string, error)
}

// entry registers an experiment: configure builds its configuration from
// the flags, the entry picks the -scale preset, runs it, writes the
// -csvdir dataset and renders the result. A flag a config holds overrides
// its preset at either scale.
func entry[C interface{ Reduced() C }, R interface {
	Render() string
	WriteCSV(dir string) error
}](name string, configure func(o benchOpts) C, run func(C) (R, error)) experiment {
	return experiment{name, func(o benchOpts) (string, error) {
		c := configure(o)
		if o.reduced {
			c = c.Reduced()
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
		entry("ex1", func(o benchOpts) experiments.EX1Config { return experiments.EX1Config{Seed: o.seed} }, experiments.RunEX1),
		entry("ex2", func(o benchOpts) experiments.EX2Config { return experiments.EX2Config{Seed: o.seed} }, experiments.RunEX2),
		entry("ex3", func(o benchOpts) experiments.EX3Config { return experiments.EX3Config{Seed: o.seed} }, experiments.RunEX3),
		entry("ex4", func(o benchOpts) experiments.EX4Config {
			return experiments.EX4Config{Seed: o.seed, Rounds: o.days}
		}, experiments.RunEX4),
		entry("ex5", func(o benchOpts) experiments.EX5Config {
			return experiments.EX5Config{Seed: o.seed, Days: o.days, ProfileRuns: o.profileRuns}
		}, experiments.RunEX5),
		entry("ex6", func(o benchOpts) experiments.EX6Config {
			return experiments.EX6Config{Seed: o.seed, Arms: o.ex6Arms}
		}, experiments.RunEX6),
		entry("ex7", func(o benchOpts) experiments.EX7Config { return experiments.EX7Config{Seed: o.seed} }, experiments.RunEX7),
		entry("ex8", func(o benchOpts) experiments.EX8Config { return experiments.EX8Config{Seed: o.seed} }, experiments.RunEX8),
		entry("ex9", func(o benchOpts) experiments.EX9Config { return experiments.EX9Config{Seed: o.seed} }, experiments.RunEX9),
		entry("ex10", func(o benchOpts) experiments.EX10Config { return experiments.EX10Config{Seed: o.seed} }, experiments.RunEX10),
		entry("ex11", func(o benchOpts) experiments.EX11Config {
			return experiments.EX11Config{Seed: o.seed, ProfileRuns: o.profileRuns}
		}, experiments.RunEX11),
		entry("ablations", func(o benchOpts) experiments.StudyConfig { return experiments.StudyConfig{Seed: o.seed} }, experiments.RunAblations),
		entry("tradeoff", func(o benchOpts) experiments.StudyConfig { return experiments.StudyConfig{Seed: o.seed} }, experiments.RunRetryTradeoff),
	}
}

// ex6Arms returns the default arms plus one arm per comma-separated
// strategy name, run with default resilience (nil when names is empty).
func ex6Arms(names string) ([]experiments.EX6Arm, error) {
	if names == "" {
		return nil, nil
	}
	arms := experiments.DefaultEX6Arms()
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		// Validate up front so a typo fails with the registry's name
		// listing instead of mid-experiment; the placeholder AZ satisfies
		// pinned strategies and is re-resolved to the chaos target inside
		// each cell.
		if _, err := router.Build(router.StrategySpec{Name: name, AZ: "us-west-1b"}); err != nil {
			return nil, err
		}
		arms = append(arms, experiments.EX6Arm{
			Label:      name,
			Strategy:   router.StrategySpec{Name: name},
			Resilience: router.DefaultResilience(),
		})
	}
	return arms, nil
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
	profileRuns := fs.Int("profile-runs", 0, "EX-5 profiling executions per workload per zone, and EX-11's warmup profiling runs (0 = the scale's preset)")
	days := fs.Int("days", 0, "EX-4 daily rounds and EX-5 evaluation days (0 = the scale's preset: the paper's 14 at full scale)")
	csvDir := fs.String("csvdir", "", "also write each figure's dataset as CSV into this directory")
	dumpMetrics := fs.Bool("metrics", false, "dump a Prometheus-text metrics snapshot covering all experiments after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale != "full" && *scale != "reduced" {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *days < 0 || *profileRuns < 0 {
		return fmt.Errorf("-days %d and -profile-runs %d: neither may be negative", *days, *profileRuns)
	}
	arms, err := ex6Arms(*ex6Strategies)
	if err != nil {
		return err
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
		seed:        *seed,
		reduced:     *scale == "reduced",
		profileRuns: *profileRuns,
		days:        *days,
		csvDir:      *csvDir,
		ex6Arms:     arms,
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
