package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

type runConfig struct {
	dir         string // the benchmark's directory
	outDir      string // where results and traces are written
	spec        benchSpec
	workload    string
	seed        uint64
	d           time.Duration // how long to measure
	trace       bool
	expectedDir string
	scale       scale
}

// scale sizes the work around the measured window. The benchmark always
// runs at fullScale; smoke_test.go shrinks it so that every code path runs
// in seconds.
type scale struct {
	margin       time.Duration // virtual time the served warm-up must pass
	meshSlice    int           // invocations of the mesh probe's load
	setupReps    int           // world constructions behind paper_repro's setup_s
	experiments  int           // how many of the eleven experiments a pass runs
	iterDiv      int           // the layer probes' iteration counts are divided by this
	probeGateway time.Duration // of gateway_mixed traffic in the served probe
	replayBursts int           // of the layer replay
	idle         time.Duration // over which an idle server's CPU is read
}

// fullScale: the margin is cloudsim's 5 min keep-alive plus one, so every
// instance set-up created has been reaped before the window opens, and the
// reaping stall (0.15-0.6 s of wall time, once) cannot land in it.
var fullScale = scale{
	margin: 6 * time.Minute, meshSlice: 400_000, setupReps: 201, experiments: 11, iterDiv: 1,
	probeGateway: 4 * time.Second, replayBursts: 300, idle: time.Second,
}

// prepared is a workload that has been set up and can be measured.
type prepared struct {
	setupS  samples
	measure func(d time.Duration, tr *tracer, reqBase int) measured
	close   func() error
}

// fromWindow turns a stretch of served traffic into the common shape, with
// the burst requests as the operations.
func fromWindow(w window) measured {
	bursts, reads := w.burstMS.sorted(), w.readMS.sorted()
	return measured{
		opsMS:     w.burstMS,
		invPerS:   float64(w.completedInv) / w.elapsed.Seconds(),
		attempted: w.attempted,
		failed:    w.failed,
		err:       w.firstErr,
		info: map[string]float64{
			"burst_ms_p50":            bursts.pct(0.5),
			"burst_ms_p95":            bursts.pct(0.95),
			"burst_ms_max":            bursts.max(),
			"read_ms_p50":             reads.pct(0.5),
			"read_ms_p95":             reads.pct(0.95),
			"gen_late_ms_p99":         w.lateMS.sorted().pct(0.99),
			"max_inflight":            float64(w.maxInflight),
			"completions_per_attempt": float64(w.completedInv) / float64(w.attemptsInv),
		},
	}
}

// prepareServed starts a server, sets it up over HTTP with warm as the
// unmeasured warm-up traffic, and times the whole of that as set-up.
func prepareServed(cfg runConfig, fullStack bool, workload string,
	warm func(s *served) error,
	measure func(s *served, d time.Duration, tr *tracer, reqBase int) measured) (prepared, error) {
	t0 := time.Now()
	s, err := startServed(cfg.dir, fullStack, cfg.trace)
	if err != nil {
		return prepared{}, err
	}
	if err := s.setup(workload, cfg.scale.margin, func() error { return warm(s) }); err != nil {
		_ = s.close() // the set-up error is the one to report
		return prepared{}, err
	}
	return prepared{
		setupS: samples{time.Since(t0).Seconds()},
		measure: func(d time.Duration, tr *tracer, reqBase int) measured {
			return measure(s, d, tr, reqBase)
		},
		close: s.close,
	}, nil
}

func prepare(cfg runConfig) (prepared, error) {
	switch cfg.workload {
	case "gateway_mixed", "gateway_reads":
		readHeavy := cfg.workload == "gateway_reads"
		return prepareServed(cfg, true, "sha1_hash",
			func(s *served) error {
				return s.openLoop(gatewayPlan(s, cfg.seed, time.Second, readHeavy), nil, 0).firstErr
			},
			func(s *served, d time.Duration, tr *tracer, reqBase int) measured {
				w := s.openLoop(gatewayPlan(s, cfg.seed, d, readHeavy), tr, reqBase)
				m := fromWindow(w)
				if readHeavy {
					// The same server and the same pump, seen from the reads.
					m.opsMS = w.readMS
				}
				return m
			})
	case "batch_closed":
		return prepareServed(cfg, false, "zipper",
			func(s *served) error {
				w, _, _ := s.closedLoop(cfg.seed, 0, nil, 0)
				return w.firstErr
			},
			func(s *served, d time.Duration, tr *tracer, reqBase int) measured {
				w, rounds, invPerS := s.closedLoop(cfg.seed, d, tr, reqBase)
				m := fromWindow(w)
				// The operation here is a round: one hybrid and one
				// focus-fastest burst back to back. Single bursts fall in
				// two groups a factor apart, and a median over both would
				// flip between them.
				m.opsMS, m.invPerS = rounds, invPerS
				return m
			})
	case "paper_repro":
		setup, err := experimentWorldSetup(cfg.seed, cfg.scale.setupReps)
		if err != nil {
			return prepared{}, err
		}
		return prepared{
			setupS: setup,
			measure: func(d time.Duration, tr *tracer, reqBase int) measured {
				return paperRepro(cfg.seed, cfg.scale.experiments, d, tr, reqBase, cfg.expectedDir)
			},
			close: func() error { return nil },
		}, nil
	}
	return prepared{}, fmt.Errorf("no workload %q", cfg.workload)
}

// finite drops readings that did not happen (a workload without reads has
// no read latency), which JSON could not carry anyway.
func finite(in map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(in))
	for k, v := range in {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

// endToEnd computes the declared end-to-end metrics of one stretch. They are
// the same four for every workload; what an operation is differs and is
// written down in README.md.
func endToEnd(setupS samples, m measured) (map[string]float64, map[string]int) {
	ops := m.opsMS.sorted()
	values := map[string]float64{
		"setup_s":     median(setupS),
		"op_p50_ms":   ops.pct(0.5),
		"op_p95_ms":   ops.pct(0.95),
		"peak_rss_mb": peakRSSMB(),
	}
	counts := map[string]int{
		"setup_s":   len(setupS),
		"op_p50_ms": len(ops),
		"op_p95_ms": len(ops),
	}
	return values, counts
}

// runOnce runs one workload once. Untraced, it measures for d and reports
// the end-to-end metrics. Traced, it measures half of d without and half
// with spans (their difference is the tracing overhead), then runs the layer
// probes, reports the per-layer metrics and writes the spans to
// out/<workload>.trace.json.
func runOnce(cfg runConfig) (report, error) {
	rep := report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.d.Seconds(), Traced: cfg.trace,
		Host: readHost(),
	}
	p, err := prepare(cfg)
	if err != nil {
		return rep, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	var m measured
	var values map[string]float64
	if !cfg.trace {
		cpu0 := cpuSeconds()
		m = p.measure(cfg.d, nil, 0)
		cpuMS := (cpuSeconds() - cpu0) * 1000
		values, rep.Samples = endToEnd(p.setupS, m)
		// Throughput is the offered rate in an open loop and the reciprocal
		// of op_p50_ms elsewhere, and CPU time moves 15-25% with the host's
		// memory traffic: both are worth reading, neither is worth gating.
		m.info["inv_per_s"] = m.invPerS
		m.info["cpu_ms_per_op"] = cpuMS / float64(len(m.opsMS))
		rep.Info = finite(m.info)
		if err := p.close(); err != nil {
			return rep, err
		}
		rep.Metrics, err = label(cfg.spec.EndToEnd, values)
	} else {
		tr := newTracer()
		plain := p.measure(cfg.d/2, nil, 0)
		m = p.measure(cfg.d/2, tr, 1)
		if err := p.close(); err != nil {
			return rep, err
		}
		m.attempted += plain.attempted
		m.failed += plain.failed
		if plain.err != nil {
			m.err = plain.err
		}
		values, rep.Samples, err = layerProbes(cfg, tr, rep.Host)
		if err != nil {
			return rep, fmt.Errorf("layer probes: %w", err)
		}
		p0, p1 := plain.opsMS.sorted().pct(0.5), m.opsMS.sorted().pct(0.5)
		values["bench.trace_overhead_pct"] = (p1 - p0) / p0 * 100
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return rep, err
		}
		if err := writeTrace(filepath.Join(cfg.outDir, cfg.workload+".trace.json"), cfg.workload, cfg.seed, rep.Host, tr.snapshot()); err != nil {
			return rep, err
		}
		rep.Metrics, err = label(cfg.spec.PerLayer, values)
	}
	if err != nil {
		return rep, err
	}
	rep.Attempted, rep.Failed, rep.Digest = m.attempted, m.failed, m.digest
	rep.Correct = m.err == nil
	if m.err != nil {
		rep.Err = m.err.Error()
		if rep.Failed == 0 {
			// A wrong digest is not one failed operation: nothing the run
			// produced can be trusted.
			rep.Failed = rep.Attempted
		}
	}
	return rep, writeReport(cfg.outDir, rep)
}

// writeReport leaves the whole record in out/, the only directory the
// benchmark writes to.
func writeReport(out string, rep report) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := rep.Workload + ".result.json"
	if rep.Traced {
		name = rep.Workload + ".layers.json"
	}
	return os.WriteFile(filepath.Join(out, name), data, 0o644)
}
