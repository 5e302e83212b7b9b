package router

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"skyfaas/internal/cpu"
	"skyfaas/internal/stats"
	"skyfaas/internal/workload"
)

// Persistence for the learned performance model: §4.6 notes that CPU
// characterizations are workload-independent and reusable, and the same
// holds for the per-workload runtime profile — profiling costs tens of
// dollars at paper scale, so a deployment saves the model rather than
// re-learning it.

type perfFile struct {
	Workloads []perfWorkloadJS `json:"workloads"`
}

type perfWorkloadJS struct {
	Workload string       `json:"workload"` // snake_case name
	Kinds    []perfKindJS `json:"kinds"`
}

type perfKindJS struct {
	Model  string  `json:"cpuModel"` // catalog model string
	N      int     `json:"n"`
	MeanMS float64 `json:"meanMS"`
}

// Save writes the model as JSON. Only the sufficient statistics survive
// (count and mean per CPU), which is exactly what routing consumes.
func (m *PerfModel) Save(w io.Writer) error {
	var file perfFile
	ids := make([]workload.ID, 0, len(m.byWorkload))
	for id := range m.byWorkload {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		js := perfWorkloadJS{Workload: id.String()}
		for _, k := range m.Kinds(id) {
			mean, _ := m.Mean(id, k)
			js.Kinds = append(js.Kinds, perfKindJS{
				Model:  cpu.MustLookup(k).Model,
				N:      m.Samples(id, k),
				MeanMS: mean,
			})
		}
		file.Workloads = append(file.Workloads, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		return fmt.Errorf("router: save perf model: %w", err)
	}
	return nil
}

// LoadPerfModel reads a model written by Save. Loaded entries reproduce
// the saved count and mean (the variance is not persisted; it is not used
// for routing).
func LoadPerfModel(r io.Reader) (*PerfModel, error) {
	var file perfFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("router: load perf model: %w", err)
	}
	m := NewPerfModel()
	for _, wjs := range file.Workloads {
		spec, ok := workload.ByName(wjs.Workload)
		if !ok {
			return nil, fmt.Errorf("router: load perf model: unknown workload %q", wjs.Workload)
		}
		for _, kjs := range wjs.Kinds {
			k, err := cpu.FromModel(kjs.Model)
			if err != nil {
				return nil, fmt.Errorf("router: load perf model: %w", err)
			}
			if kjs.N <= 0 {
				continue
			}
			byKind, ok := m.byWorkload[spec.ID]
			if !ok {
				byKind = make(map[cpu.Kind]*stats.Running)
				m.byWorkload[spec.ID] = byKind
			}
			// The count comes from the file: restore it in O(1), never by
			// replaying the mean n times.
			r := stats.RunningOf(kjs.N, kjs.MeanMS)
			byKind[k] = &r
		}
	}
	return m, nil
}
