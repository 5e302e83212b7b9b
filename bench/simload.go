package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/experiments"
	"skyfaas/internal/metrics"
)

// expectedSeed is the seed the checked-in reference outputs were made with.
const expectedSeed = 42

// checkExpected compares a run's digest with bench/expected/<workload>.seed42.
// Other seeds have no reference; for them the check is that every repetition
// inside the run produced the same digest, which the callers do.
func checkExpected(expectedDir, workload string, seed uint64, got string) error {
	if seed != expectedSeed {
		return nil
	}
	path := filepath.Join(expectedDir, fmt.Sprintf("%s.seed%d", workload, expectedSeed))
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if want := strings.TrimSpace(string(data)); want != got {
		return fmt.Errorf("%s: output digest %s, expected %s (%s)", workload, got, want, path)
	}
	return nil
}

// measured is what one stretch of a workload produced. Served workloads fill
// it from a window; paper_repro from its passes.
type measured struct {
	opsMS     samples // wall time of each operation
	invPerS   float64 // completed invocations per host second, printed as info
	attempted int
	failed    int
	digest    string // of the outputs, where the workload has one
	err       error  // first failure or correctness error
	info      map[string]float64
}

// experiment is one paper experiment at the repository's benchmark scale
// (the Reduced presets: full scale takes 44 s a pass, more than the whole
// of a run here).
type experiment struct {
	name string
	run  func(seed uint64) (string, error)
}

func render[R interface{ Render() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// ex9Invocations sizes EX-9's load inside a pass: about a twelfth of it, as
// the other experiments' Reduced presets are of their full scale.
const ex9Invocations = 100_000

// paperExperiments lists what `make reproduce` regenerates. EX-9 is its mesh
// load on the single-queue engine, rendered as its checksum: RunEX9's own
// table carries wall-clock rates and is different every time.
func paperExperiments() []experiment {
	return []experiment{
		{"ex1", func(s uint64) (string, error) {
			return render(experiments.RunEX1(experiments.EX1Config{Seed: s}.Reduced()))
		}},
		{"ex2", func(s uint64) (string, error) {
			return render(experiments.RunEX2(experiments.EX2Config{Seed: s}.Reduced()))
		}},
		{"ex3", func(s uint64) (string, error) {
			return render(experiments.RunEX3(experiments.EX3Config{Seed: s}.Reduced()))
		}},
		{"ex4", func(s uint64) (string, error) {
			return render(experiments.RunEX4(experiments.EX4Config{Seed: s}.Reduced()))
		}},
		{"ex5", func(s uint64) (string, error) {
			return render(experiments.RunEX5(experiments.EX5Config{Seed: s}.Reduced()))
		}},
		{"ex6", func(s uint64) (string, error) {
			return render(experiments.RunEX6(experiments.EX6Config{Seed: s}.Reduced()))
		}},
		{"ex7", func(s uint64) (string, error) {
			return render(experiments.RunEX7(experiments.EX7Config{Seed: s}.Reduced()))
		}},
		{"ex8", func(s uint64) (string, error) {
			return render(experiments.RunEX8(experiments.EX8Config{Seed: s}.Reduced()))
		}},
		{"ex9", func(s uint64) (string, error) {
			st, err := experiments.RunMeshLoad(experiments.MeshLoadConfig{Seed: s, Shards: 1, Invocations: ex9Invocations})
			if err == nil && st.Invocations != ex9Invocations {
				err = fmt.Errorf("mesh load completed %d of %d invocations", st.Invocations, ex9Invocations)
			}
			return fmt.Sprintf("%016x", st.Checksum), err
		}},
		{"ex10", func(s uint64) (string, error) {
			return render(experiments.RunEX10(experiments.EX10Config{Seed: s}.Reduced()))
		}},
		{"ex11", func(s uint64) (string, error) {
			return render(experiments.RunEX11(experiments.EX11Config{Seed: s}.Reduced()))
		}},
	}
}

// simulatedInvocations sums sky_cloudsim_invocations_total over the
// process-wide registry, which is where the experiments' runtimes report.
func simulatedInvocations() int {
	var n float64
	for _, fam := range metrics.Default().Snapshot().Metrics {
		if fam.Name == "sky_cloudsim_invocations_total" {
			for _, s := range fam.Series {
				n += s.Value
			}
		}
	}
	return int(n)
}

// paperRepro runs the first n of the eleven experiments (all of them but in
// one test), pass after pass, until d has passed. Each pass is one operation;
// its digest is the sha256 of the experiments' outputs. m.info receives the
// median wall seconds of each experiment.
func paperRepro(seed uint64, n int, d time.Duration, tr *tracer, reqBase int, expectedDir string) measured {
	m := measured{info: map[string]float64{}}
	exps := paperExperiments()[:n]
	perEx := make(map[string][]float64)
	var rates samples
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		h := sha256.New()
		inv0 := simulatedInvocations()
		t0 := time.Now()
		root := tr.add(0, reqBase+pass, "experiments.pass", t0, t0) // closed below
		var err error
		for _, ex := range exps {
			e0 := time.Now()
			var out string
			if out, err = ex.run(seed); err != nil {
				err = fmt.Errorf("%s: %w", ex.name, err)
				break
			}
			e1 := time.Now()
			tr.add(root, reqBase+pass, "experiments."+ex.name, e0, e1)
			perEx[ex.name] = append(perEx[ex.name], e1.Sub(e0).Seconds())
			fmt.Fprintf(h, "%s\n%s\n", ex.name, out)
		}
		wall := time.Since(t0)
		tr.close(root, t0.Add(wall))
		m.attempted++
		digest := fmt.Sprintf("%x", h.Sum(nil))
		if err == nil && m.digest != "" && digest != m.digest {
			err = fmt.Errorf("pass digest %s differs from the previous pass's %s", digest, m.digest)
		}
		if err != nil {
			m.failed++
			if m.err == nil {
				m.err = err
			}
			continue
		}
		m.digest = digest
		inv := simulatedInvocations() - inv0
		m.opsMS = append(m.opsMS, ms(wall))
		rates = append(rates, float64(inv)/wall.Seconds())
	}
	m.invPerS = median(rates)
	for name, v := range perEx {
		m.info["experiments."+name+"_s"] = median(v)
	}
	if m.err == nil {
		m.err = checkExpected(expectedDir, "paper_repro", seed, m.digest)
	}
	return m
}

// experimentWorldSetup is paper_repro's set-up: building the world every
// experiment starts from (core.New as experiments.newRuntime configures it).
func experimentWorldSetup(seed uint64, reps int) (samples, error) {
	var s samples
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		_, err := core.New(core.Config{
			Seed:      seed,
			Epoch:     time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC),
			CloudOpts: cloudsim.Options{HorizonDays: 3},
			SkipMesh:  true,
			Metrics:   metrics.NewRegistry(),
		})
		if err != nil {
			return nil, err
		}
		s = append(s, time.Since(t0).Seconds())
	}
	return s, nil
}
