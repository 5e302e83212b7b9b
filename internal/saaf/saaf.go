// Package saaf reimplements the observable core of the Serverless
// Application Analytics Framework (SAAF): a profiler that runs *inside* a
// function instance, inspects the environment a guest can see
// (/proc/cpuinfo, instance identifiers), and attaches a report to the
// function's response.
//
// The inference path is kept honest: Collect receives the raw cpuinfo text
// the simulated host exposes and must parse the CPU model out of it, exactly
// as the real SAAF does. Nothing downstream of this package may touch the
// simulator's ground truth.
package saaf

import (
	"encoding/json"
	"fmt"

	"skyfaas/internal/cpu"
)

// Report is the per-invocation profile SAAF returns with a function's
// response. Field names follow SAAF's JSON attribute conventions.
type Report struct {
	// UUID identifies the function instance (stable across warm reuses) on
	// the wire only: Parse fills it and encoding/json writes it, but Collect
	// leaves it empty, since in process the instance is its number.
	UUID string `json:"uuid"`
	// Instance is the instance's number in its zone, which the platform
	// hands out densely from 1: two reports from one zone name the same
	// instance exactly when their numbers are equal, so a consumer can
	// dedupe on it without hashing strings, and 0 means no instance. It is
	// platform metadata, not part of SAAF's report (not serialized, 0 after
	// Parse).
	Instance int `json:"-"`
	// VMID identifies the host machine the instance landed on.
	VMID string `json:"vmID"`
	// CPUModel is the raw model string read from /proc/cpuinfo.
	CPUModel string `json:"cpuType"`
	// CPUMHz is the clock reported by /proc/cpuinfo.
	CPUMHz float64 `json:"cpuMHz"`
	// VCPUs is the number of processors visible to the guest.
	VCPUs int `json:"vcpus"`
	// NewContainer is 1 when this invocation cold-started the instance.
	NewContainer int `json:"newcontainer"`
	// RuntimeMS is the billed handler runtime in milliseconds.
	RuntimeMS float64 `json:"runtime"`
	// Kind is the catalogued processor kind inferred from CPUModel. It is
	// derived locally from the model string (not serialized) so consumers
	// re-derive it after parsing.
	Kind cpu.Kind `json:"-"`
}

// Collect builds a report from what a guest observes. cpuinfo is the raw
// /proc/cpuinfo content; instance is the instance's number in its zone and
// host the platform-assigned host identifier the guest reads from its
// environment.
func Collect(cpuinfo string, instance int, host string, cold bool, runtimeMS float64) (Report, error) {
	kind, procs, err := cpu.ParseCPUInfo(cpuinfo)
	if err != nil {
		return Report{}, fmt.Errorf("saaf: %w", err)
	}
	info := cpu.MustLookup(kind)
	r := Report{
		Instance:  instance,
		VMID:      host,
		CPUModel:  info.Model,
		CPUMHz:    info.ClockGHz * 1000,
		VCPUs:     procs,
		RuntimeMS: runtimeMS,
		Kind:      kind,
	}
	if cold {
		r.NewContainer = 1
	}
	return r, nil
}

// Parse decodes SAAF-style JSON and re-derives the processor kind from the
// model string.
func Parse(data []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("saaf: parse: %w", err)
	}
	kind, err := cpu.FromModel(r.CPUModel)
	if err != nil {
		return Report{}, fmt.Errorf("saaf: parse: %w", err)
	}
	r.Kind = kind
	return r, nil
}

// Cold reports whether the invocation cold-started its instance.
func (r Report) Cold() bool { return r.NewContainer == 1 }
