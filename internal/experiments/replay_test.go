package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/replay.sha256")

// replayDigests pins each experiment's reduced output at every replay seed.
const replayDigests = "testdata/replay.sha256"

// replaySeeds are the seeds the replay contract pins. Seed 5's digests go
// by the experiment's name, a later seed's by name and seed ("EX8-seed7"):
// an event reorder that one seed's draws happen to hide shows at the other.
var replaySeeds = []uint64{5, 7}

// TestExperimentsReplay is the replay contract of EX-1..EX-11, the
// ablations (ABL) and the §4.6 retry trade-off (TRADEOFF): each
// experiment's reduced run at every replay seed must produce exactly the
// bytes pinned in testdata/replay.sha256 — a run is a pure function of its
// seed (§3.5), and a refactor must not move a single figure. The digest
// covers Render and every file WriteCSV writes; EX-9's covers only its mesh
// checksum, since its table also carries wall-clock throughput.
//
// After a deliberate change to an experiment's output, review the diff of a
// skybench run and regenerate with
//
//	go test ./internal/experiments/ -run ExperimentsReplay -update
func TestExperimentsReplay(t *testing.T) {
	type replayCase struct {
		name string
		seed uint64
		run  func(dir string) (string, error)
	}
	var cases []replayCase
	for _, seed := range replaySeeds {
		suffix := ""
		if seed != replaySeeds[0] {
			suffix = fmt.Sprintf("-seed%d", seed)
		}
		for _, c := range []struct {
			name string
			run  func(dir string) (string, error)
		}{
			{"EX1", outputs(RunEX1, EX1Config{Seed: seed}.Reduced())},
			{"EX2", outputs(RunEX2, EX2Config{Seed: seed}.Reduced())},
			{"EX3", outputs(RunEX3, EX3Config{Seed: seed}.Reduced())},
			{"EX4", outputs(RunEX4, EX4Config{Seed: seed}.Reduced())},
			{"EX5", outputs(RunEX5, EX5Config{Seed: seed}.Reduced())},
			{"EX6", outputs(RunEX6, EX6Config{Seed: seed}.Reduced())},
			{"EX7", outputs(RunEX7, EX7Config{Seed: seed}.Reduced())},
			{"EX8", outputs(RunEX8, EX8Config{Seed: seed}.Reduced())},
			{"EX9", func(string) (string, error) {
				res, err := RunEX9(EX9Config{Seed: seed}.Reduced())
				return fmt.Sprintf("%016x", res.Checksum), err
			}},
			{"EX10", outputs(RunEX10, EX10Config{Seed: seed}.Reduced())},
			{"EX11", outputs(RunEX11, EX11Config{Seed: seed}.Reduced())},
			{"ABL", outputs(RunAblations, StudyConfig{Seed: seed})},
			{"TRADEOFF", outputs(RunRetryTradeoff, StudyConfig{Seed: seed})},
		} {
			cases = append(cases, replayCase{c.name + suffix, seed, c.run})
		}
	}
	want := readDigests(t)
	var mu sync.Mutex
	got := map[string]string{}
	if *updateDigests {
		// Cleanups run once every parallel subtest has finished.
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			var b strings.Builder
			for _, tc := range cases {
				fmt.Fprintf(&b, "%s %s\n", tc.name, got[tc.name])
			}
			if err := os.WriteFile(replayDigests, []byte(b.String()), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := tc.run(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(out))
			digest := hex.EncodeToString(sum[:])
			mu.Lock()
			got[tc.name] = digest
			mu.Unlock()
			if !*updateDigests && digest != want[tc.name] {
				t.Errorf("output digest %s, pinned %q: the reduced run at seed %d changed", digest, want[tc.name], tc.seed)
			}
		})
	}
}

// outputs returns a run of cfg that collects its bytes: Render, then every
// file WriteCSV wrote into dir, by name.
func outputs[C any, R interface {
	Render() string
	WriteCSV(dir string) error
}](run func(C) (R, error), cfg C) func(dir string) (string, error) {
	return func(dir string) (string, error) {
		res, err := run(cfg)
		if err != nil {
			return "", err
		}
		if err := res.WriteCSV(dir); err != nil {
			return "", err
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString(res.Render())
		for _, e := range entries { // ReadDir sorts by name
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "\n== %s ==\n%s", e.Name(), data)
		}
		return b.String(), nil
	}
}

// readDigests parses testdata/replay.sha256: one "NAME HEX" pair a line.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	want := map[string]string{}
	f, err := os.Open(replayDigests)
	if err != nil {
		if *updateDigests {
			return want
		}
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
