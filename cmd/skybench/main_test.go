package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	errCh := make(chan error, 1)
	go func() { errCh <- fn() }()
	runErr := <-errCh
	_ = w.Close()
	buf := new(strings.Builder)
	tmp := make([]byte, 4096)
	for {
		n, rerr := r.Read(tmp)
		buf.Write(tmp[:n])
		if rerr != nil {
			break
		}
	}
	return buf.String(), runErr
}

// dispatch runs skybench with args plus a -csvdir and requires every wanted
// string in the output and every named dataset on disk.
func dispatch(t *testing.T, args []string, wants, csvs []string) {
	t.Helper()
	dir := t.TempDir()
	out, err := captureStdout(t, func() error {
		return run(append(args, "-csvdir", dir))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, f := range csvs {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("csv %s not written: %v", f, err)
		}
	}
}

func TestRunTable1(t *testing.T) {
	dispatch(t, []string{"-ex", "table1"}, []string{"Table 1", "logistic_regression", "zipper"}, nil)
}

func TestRunReducedEx1WithCSV(t *testing.T) {
	dispatch(t, []string{"-ex", "ex1", "-scale", "reduced"},
		[]string{"Fig. 3", "Fig. 4"},
		[]string{"fig3_sleep_sweep.csv", "fig4_saturation.csv"})
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunUnknownExperimentErrors(t *testing.T) {
	_, err := captureStdout(t, func() error {
		return run([]string{"-ex", "ex99"})
	})
	if err == nil {
		t.Fatal("unknown experiment accepted silently")
	}
	// The error names every valid choice, derived from the registry.
	for _, name := range experimentNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

// TestRegistryAgreesWithFlagText is the drift guard the -ex help string
// used to lack: the flag text, the registry, and the valid-name set must
// all come from the same list.
func TestRegistryAgreesWithFlagText(t *testing.T) {
	names := experimentNames()
	if len(names) == 0 {
		t.Fatal("empty experiment registry")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate registry entry %s", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"table1", "ex1", "ex6", "ex7", "ex9", "ablations", "tradeoff"} {
		if !seen[want] {
			t.Errorf("registry missing %s", want)
		}
	}
	if seen["all"] {
		t.Error("registry must not claim the reserved name \"all\"")
	}

	// The -ex usage string is derived from the registry and must list
	// every experiment exactly once, in run order.
	usage := exUsage()
	if !strings.Contains(usage, "all | "+strings.Join(names, ",")) {
		t.Errorf("-ex usage %q missing derived list", usage)
	}
}

// TestRunEx7Dispatch runs a mid-registry entry end to end through the CLI:
// the reduced EX-7 must render its table and write its dataset.
func TestRunEx7Dispatch(t *testing.T) {
	dispatch(t, []string{"-ex", "ex7", "-scale", "reduced"},
		[]string{"EX-7", "static-once", "periodic", "drift", "headline"},
		[]string{"ex7_refresh.csv"})
}

// TestRunEx9Dispatch: the reduced EX-9 must render its throughput table and
// write its dataset.
func TestRunEx9Dispatch(t *testing.T) {
	dispatch(t, []string{"-ex", "ex9", "-scale", "reduced"},
		[]string{"EX-9", "Deployments", "Inv/s", "Checksum"},
		[]string{"ex9_scalability.csv"})
}

// TestRunStudiesDispatch: the ablations and the §4.6 trade-off are reachable
// only through these two entries, so both must render the quantities
// EXPERIMENTS.md tabulates and write their datasets.
func TestRunStudiesDispatch(t *testing.T) {
	dispatch(t, []string{"-ex", "ablations,tradeoff", "-seed", "0"},
		[]string{"fan-out", "client calls", "passive", "frozen day 1", "retries per completion", "hold cost USD"},
		[]string{"ablations.csv", "tradeoff.csv"})
}

// TestRunReducedHonoursDays: -days overrides the scale preset, so a
// reduced EX-4 with -days 2 observes each zone on exactly two rounds.
func TestRunReducedHonoursDays(t *testing.T) {
	dir := t.TempDir()
	if _, err := captureStdout(t, func() error {
		return run([]string{"-ex", "ex4", "-scale", "reduced", "-days", "2", "-csvdir", dir})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6_polls_to_accuracy.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rounds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		zone, _, _ := strings.Cut(line, ",")
		rounds[zone]++
	}
	if len(rounds) == 0 {
		t.Fatal("no rounds written")
	}
	for zone, n := range rounds {
		if n != 2 {
			t.Errorf("%s: %d rounds, want 2", zone, n)
		}
	}
}
