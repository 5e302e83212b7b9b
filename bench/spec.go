package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the share
// of the parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric and workload names,
// units and bounds are written down. The harness reads it rather than
// repeating it, and refuses to print a result that does not match it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findBenchDir returns the directory holding the benchmark's files: the
// working directory under `go run -C bench .` and `go test`, or ./bench when
// the binary is started from the root of the checkout.
func findBenchDir() (string, error) {
	for _, dir := range []string{".", "bench"} {
		if _, err := os.Stat(filepath.Join(dir, "tenants.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("bench: tenants.json not found in . or ./bench; run from the checkout root or from bench/")
}

func loadSpec(benchDir string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

func (s benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// label stamps values with the units declared for them, and fails unless
// the two sets of names are the same: a metric the harness forgot, or one
// BENCHMARK.json does not know, is an error, not a silent gap.
func label(declared []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) { // the measurement did not happen
			return nil, fmt.Errorf("metric %s has no finite value", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but BENCHMARK.json does not declare it", name)
		}
	}
	return out, nil
}
