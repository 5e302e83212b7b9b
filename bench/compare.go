package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// setRun is one run inside a set: the result line plus the seed it ran with.
type setRun struct {
	Seed uint64 `json:"seed"`
	result
}

// runSet is what -repeat writes and -compare reads: every run of every
// workload, with the host they ran on.
type runSet struct {
	Host    hostRecord          `json:"host"`
	Seconds int                 `json:"seconds"`
	Runs    map[string][]setRun `json:"runs"` // by workload
}

// values gathers one metric across a workload's runs.
func (s runSet) values(workload, name string) []float64 {
	var v []float64
	for _, r := range s.Runs[workload] {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the distance between the quartiles as a share of the median: the
// run-to-run noise a difference between two sets has to exceed.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// repeatRuns runs each workload n times, each in a fresh process of this
// same binary, run i with seed+i as the acceptance runs do, and writes the
// set to out. It prints the median and quartiles of every end-to-end metric
// and its spread beside the bound.
func repeatRuns(spec benchSpec, workload string, seed uint64, seconds, n int, out string, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames(spec)
	if workload != "" {
		if !spec.hasWorkload(workload) {
			return fmt.Errorf("unknown workload %q; BENCHMARK.json names %v", workload, names)
		}
		names = []string{workload}
	}
	set := runSet{Host: readHost(), Seconds: seconds, Runs: map[string][]setRun{}}
	for _, name := range names {
		for i := 0; i < n; i++ {
			s := seed + uint64(i)
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			// A run that found wrong outputs still printed its result line;
			// keep it, so the set shows the failure.
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			r := setRun{Seed: s}
			if jerr := json.Unmarshal(lines[len(lines)-1], &r); jerr != nil {
				if err != nil {
					return fmt.Errorf("%s run %d: %w", name, i, err)
				}
				return fmt.Errorf("%s run %d: no result line: %w", name, i, jerr)
			}
			set.Runs[name] = append(set.Runs[name], r)
			fmt.Fprintf(w, "%s run %d/%d seed %d: correct=%v failed=%d/%d\n", name, i+1, n, s, r.Correct, r.Failed, r.Attempted)
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tspread\tbound\t")
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			v := set.values(name, m.Name)
			q1, q3 := quartiles(v)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.4f\t%.1f%%\t%.0f%%\t\n",
				name, m.Name, m.Unit, median(v), q1, q3, spread(v)*100, m.Bound*100)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "set of %d runs per workload written to %s\n", n, out)
	return failedRuns(set)
}

func failedRuns(s runSet) error {
	for name, runs := range s.Runs {
		for _, r := range runs {
			if !r.Correct || r.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v, %d of %d failed", name, r.Seed, r.Correct, r.Failed, r.Attempted)
			}
		}
	}
	return nil
}

func loadSet(path string) (runSet, error) {
	var s runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// compareSets checks set B against set A, metric by metric and workload by
// workload, with the bounds BENCHMARK.json fixes. A metric whose spread in
// either set exceeds its bound is reported as unresolved, never as
// unchanged: the sets cannot tell. It returns an error if any metric
// regressed, any run failed, or a set has no value for a workload and metric
// BENCHMARK.json names.
func compareSets(spec benchSpec, pathA, pathB string, w io.Writer) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  (%s, %s, nproc %d, sleep floor %.3f ms)\n", pathA, a.Host.Commit, a.Host.GoVersion, a.Host.NumCPU, a.Host.SleepFloorMS)
	fmt.Fprintf(w, "B: %s  (%s, %s, nproc %d, sleep floor %.3f ms)\n", pathB, b.Host.Commit, b.Host.GoVersion, b.Host.NumCPU, b.Host.SleepFloorMS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tworse by\tspread A\tspread B\tbound\tverdict\t")
	regressed, missing := 0, 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				missing++
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\t%.0f%%\tMISSING (%d values in A, %d in B)\t\n",
					wl.Name, m.Name, m.Unit, m.Bound*100, len(va), len(vb))
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\t\n",
				wl.Name, m.Name, m.Unit, ma, mb, worse*100, sa*100, sb*100, m.Bound*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := errors.Join(failedRuns(a), failedRuns(b)); err != nil {
		return err
	}
	if missing > 0 {
		return fmt.Errorf("%d pairing(s) of workload and metric missing from a set", missing)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", regressed)
	}
	return nil
}
