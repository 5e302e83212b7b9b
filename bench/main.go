// Command bench is the one benchmark of skyfaas. It runs a named workload in
// this process, checks that what the system answered is correct, and prints
// every metric BENCHMARK.json declares, by name, with its unit:
//
//	go run -C bench . --workload gateway_mixed --seed 42 --seconds 10 --trace 0
//	go run -C bench . --workload paper_repro --trace 1  # per-layer run, leaves out/paper_repro.trace.json
//	go run -C bench . -repeat 10 -out out/a.json        # ten fresh processes per workload
//	go run -C bench . -compare out/a.json out/b.json    # two sets against the bounds
//
// The last line of standard output is the result as one JSON object; see
// README.md for what the workloads and metrics mean.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect ends a run whose result line was printed with correct=false
// or failed>0: the numbers are there to read, the exit code is not zero.
var errIncorrect = errors.New("the workload's outputs were not all correct")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json); with -repeat, empty means all")
	seed := fs.Uint64("seed", expectedSeed, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 0, "seconds to measure for (0 = BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and out/<workload>.trace.json")
	repeat := fs.Int("repeat", 0, "run each workload this many times in fresh processes and summarize the set")
	out := fs.String("out", "", "with -repeat: file to write the set to (default out/set.json)")
	compare := fs.Bool("compare", false, "compare two -repeat sets: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := findBenchDir()
	if err != nil {
		return err
	}
	spec, err := loadSpec(dir)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two set files")
		}
		return compareSets(spec, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *repeat > 0 {
		if *out == "" {
			*out = filepath.Join(dir, "out", "set.json")
		}
		return repeatRuns(spec, *workload, *seed, *seconds, *repeat, *out, stdout)
	}
	if !spec.hasWorkload(*workload) {
		return fmt.Errorf("unknown workload %q; BENCHMARK.json names %v", *workload, workloadNames(spec))
	}
	rep, err := runOnce(runConfig{
		dir: dir, outDir: filepath.Join(dir, "out"), spec: spec, workload: *workload, seed: *seed,
		d: time.Duration(*seconds) * time.Second, trace: *trace != 0, expectedDir: filepath.Join(dir, "expected"), scale: fullScale,
	})
	if err != nil {
		return err
	}
	if err := rep.print(stdout); err != nil {
		return err
	}
	return rep.verdict()
}

// verdict is nil for a run whose every output was correct.
func (r report) verdict() error {
	if !r.Correct || r.Failed > 0 {
		return errIncorrect
	}
	return nil
}

func workloadNames(spec benchSpec) []string {
	names := make([]string, len(spec.Workloads))
	for i, w := range spec.Workloads {
		names[i] = w.Name
	}
	return names
}

// report is one run's record: the contract's four result keys plus what
// makes the numbers readable later. It is written whole to out/ and printed
// in part.
type report struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Traced   bool       `json:"traced"`
	Host     hostRecord `json:"host"`
	result
	// Samples is how many samples stand behind each percentile.
	Samples map[string]int `json:"samples"`
	Digest  string         `json:"digest,omitempty"`
	Err     string         `json:"error,omitempty"` // first failure or correctness error
	// Info holds readings worth printing that this kind of run does not
	// declare as metrics.
	Info map[string]float64 `json:"info,omitempty"`
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print writes the readable record and then, as the last line, the result
// object with exactly the keys correct, attempted, failed and metrics.
func (r report) print(w io.Writer) error {
	h := r.Host
	fmt.Fprintf(w, "workload %s  seed %d  measured %.1fs  traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "host  commit %s  %s  nproc %d  GOMAXPROCS %d  %s  kernel %s  sleep floor %.3f ms\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.Kernel, h.SleepFloorMS)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			fmt.Fprintf(w, " (%d samples)", n)
		}
		fmt.Fprintln(w)
	}
	for _, name := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "  info %-29s %14.4f\n", name, r.Info[name])
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "output digest %s\n", r.Digest)
	}
	if r.Err != "" {
		fmt.Fprintf(w, "FAILED: %s\n", r.Err)
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
