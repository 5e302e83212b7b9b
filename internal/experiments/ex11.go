package experiments

import (
	"fmt"
	"strings"
	"time"

	"skyfaas/internal/chaos"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/load"
	"skyfaas/internal/metrics"
	"skyfaas/internal/rng"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/warmpool"
	"skyfaas/internal/workload"
)

// EX-11 — predictive warm pooling vs the cold-start tax. One zone serves a
// day/night square wave: each period spends its first half at a
// near-silent trough that outlasts the platform keep-alive (so pools
// drain) and its second half at a busy plateau, with a vertical edge
// between them. Four policies run the identical arrival schedule: no warm
// pool (organic warming pays one cold start per concurrency slot at every
// edge), a pinned floor (pay to hold peak capacity through every trough),
// reactive sizing (track the smoothed recent rate — always one edge
// behind, so its floor arrives after organic warming already paid), and
// predictive sizing (Holt–Winters seasonal forecast one lead ahead, warm
// before the step). Spend is honest: pre-warm initializations AND
// floor-held instance-seconds are billed (cloudsim's provisioned-
// concurrency pricing), so holding capacity is never free. The first
// period trains the forecaster and is excluded from measurement; the
// comparison is cold-start rate and served latency tail against warm-pool
// spend. Two extra cells repeat reactive and predictive under a chaos
// cold-start spike, where every cold start the policy fails to prevent
// costs several times more.

// The six cells: four policies on the clean curve, the two adaptive
// policies again under a cold-start spike.
const (
	EX11Off             = "off"
	EX11Pinned          = "pinned"
	EX11Reactive        = "reactive"
	EX11Predictive      = "predictive"
	EX11ReactiveSpike   = "reactive-spike"
	EX11PredictiveSpike = "predictive-spike"
)

// EX11Arms lists the cells in run order.
func EX11Arms() []string {
	return []string{EX11Off, EX11Pinned, EX11Reactive, EX11Predictive,
		EX11ReactiveSpike, EX11PredictiveSpike}
}

// EX11Config parameterizes EX-11.
type EX11Config struct {
	Seed uint64
	// The quota and warmup.
	openLoop
	// PeakRPS / Period / Cycles shape the square wave: each Period spends
	// its first half at a trough of PeakRPS/20 and its second half at
	// PeakRPS (the plateau), Cycles times (defaults 10 rps, 12m, 4). The
	// near-silent trough is the point: it must outlast ex11KeepAlive so
	// pools drain, and the vertical edge rewards the policy's foresight (or
	// punishes its lack). The first cycle trains the forecaster and is
	// excluded from measurement.
	PeakRPS float64
	Period  time.Duration
	Cycles  int
	// TickEvery / Lead tune the maintainer (defaults 20s / 90s; the
	// season is always Period).
	TickEvery time.Duration
	Lead      time.Duration
	// Floor is the pinned policy's fixed warm floor (default 12 — peak
	// concurrency at the default curve).
	Floor int
}

const (
	// ex11KeepAlive is the platform's idle-instance retention: compressed
	// below the diurnal trough so pools actually drain, the regime the
	// paper's cold-start numbers live in.
	ex11KeepAlive = time.Minute
	// ex11Window is the forecaster's bucket width.
	ex11Window = 30 * time.Second
	// ex11Gamma is the forecaster's seasonal learning rate: higher than the
	// production default because the experiment compresses a day into
	// minutes and grants the forecaster only one training pass over the
	// season before measurement starts.
	ex11Gamma = 0.65
	// ex11RatePerHour / ex11Cap tune the USD budget governor.
	ex11RatePerHour = 0.50
	ex11Cap         = 1.00
	// ex11SpikeMagnitude is the chaos cold-start multiplier in the spike
	// cells.
	ex11SpikeMagnitude = 8
)

func (c EX11Config) withDefaults() EX11Config {
	c.openLoop = c.openLoop.withDefaults()
	if c.PeakRPS == 0 {
		c.PeakRPS = 10
	}
	if c.Period == 0 {
		c.Period = 12 * time.Minute
	}
	if c.Cycles == 0 {
		c.Cycles = 4
	}
	if c.TickEvery == 0 {
		c.TickEvery = 20 * time.Second
	}
	if c.Lead == 0 {
		c.Lead = 90 * time.Second
	}
	if c.Floor == 0 {
		c.Floor = 12
	}
	return c
}

// Reduced returns a benchmark-scale EX-11: the same curve shape compressed
// to three 6-minute cycles at 6 rps peak.
func (c EX11Config) Reduced() EX11Config {
	c = c.withDefaults()
	c.openLoop = c.openLoop.reduced()
	c.PeakRPS = 6
	c.Period = 6 * time.Minute
	c.Cycles = 3
	c.TickEvery = 15 * time.Second
	c.Lead = time.Minute
	c.Floor = 8
	return c
}

// EX11Cell is one policy's measurement over the post-training cycles.
type EX11Cell struct {
	Arm   string
	Mode  warmpool.Mode
	Spike bool
	// Requests / Cold count measured arrivals and the ones that paid a
	// request-path cold start; ColdRate is their ratio.
	Requests int
	Cold     int
	ColdRate float64
	// Latency digests served measured requests; Errors counts failures.
	Latency metrics.Summary
	Errors  uint64
	// SpendUSD is the warm-pool provisioning spend from the cloud meter;
	// Provisioned / SkippedBudget are the maintainer's rollup.
	SpendUSD      float64
	Provisioned   int
	SkippedBudget int
}

// EX11Result carries the policy comparison, cells in arm order.
type EX11Result struct {
	Workload workload.ID
	Zone     string
	PeakRPS  float64
	Period   time.Duration
	Cycles   int
	Cells    []EX11Cell
}

// Cell returns the named arm's measurement.
func (r EX11Result) Cell(arm string) (EX11Cell, bool) {
	return findCell(r.Cells, func(c EX11Cell) bool { return c.Arm == arm })
}

// ex11Streams builds the square wave (each Period at PeakRPS/20, then
// PeakRPS) as the first cycle, which trains the forecaster, and the
// measured rest. Each half-period segment draws from its own derived stream
// so the schedule is independent of how other segments consume randomness.
// The trough divides rather than multiplies by 0.05, so the reduced trough
// is exactly the double 0.3 (6*0.05 is not).
func ex11Streams(cfg EX11Config, r *rng.Stream) (train, measured *stream, err error) {
	streams := []*stream{{}, {}}
	half := cfg.Period / 2
	for cyc := 0; cyc < cfg.Cycles; cyc++ {
		for i, rate := range []float64{cfg.PeakRPS / 20, cfg.PeakRPS} {
			seg, err := constantStream("", rate, half, r.SplitIndexed("seg", cyc*2+i), nil)
			if err != nil {
				return nil, nil, err
			}
			off := time.Duration(cyc)*cfg.Period + time.Duration(i)*half
			s := streams[min(cyc, 1)]
			for _, at := range seg.at {
				s.at = append(s.at, off+at)
			}
		}
	}
	return streams[0], streams[1], nil
}

// RunEX11 executes EX-11. Every policy runs in a fresh world: identical
// seed, characterization, warmup and arrival schedule; only the warm-pool
// mode and the chaos window differ.
func RunEX11(cfg EX11Config) (EX11Result, error) {
	cfg = cfg.withDefaults()
	res := EX11Result{
		Workload: openLoopWorkload, Zone: openLoopZone,
		PeakRPS: cfg.PeakRPS, Period: cfg.Period, Cycles: cfg.Cycles,
	}
	var capacity float64
	for _, arm := range EX11Arms() {
		mode, spike := warmpool.Mode(strings.TrimSuffix(arm, "-spike")), strings.HasSuffix(arm, "-spike")
		cell := EX11Cell{Arm: arm, Mode: mode, Spike: spike}
		err := cfg.runCell(cfg.Seed, ex11KeepAlive, &capacity, func(p *sim.Proc, w *openLoopWorld) error {
			// The admission gate is not consulted: its service-time estimate
			// is the sizer's input.
			m, err := w.rt.EnableWarmPool(warmpool.Config{
				Zones:       []string{openLoopZone},
				Mode:        mode,
				TickEvery:   cfg.TickEvery,
				Window:      ex11Window,
				Season:      cfg.Period,
				Lead:        cfg.Lead,
				Gamma:       ex11Gamma,
				Floor:       cfg.Floor,
				RatePerHour: ex11RatePerHour,
				Cap:         ex11Cap,
			}, openLoopWorkload)
			if err != nil {
				return err
			}
			m.Start()
			if spike {
				// The spike covers every measured cycle: each cold start the
				// policy fails to prevent now pays ex11SpikeMagnitude times
				// the usual initialization.
				if _, err := w.rt.Chaos().Inject(chaos.Fault{
					Kind:      chaos.ColdStartSpike,
					AZ:        openLoopZone,
					Start:     cfg.Period,
					Duration:  time.Duration(cfg.Cycles-1) * cfg.Period,
					Magnitude: ex11SpikeMagnitude,
				}); err != nil {
					return err
				}
			}
			train, measured, err := ex11Streams(cfg, rng.New(cfg.Seed).Split("ex11/arrivals"))
			if err != nil {
				return err
			}
			// The forecaster's signal is every arrival, observed as it lands
			// (skyd wires this to the router's traffic feed). Only the cycles
			// after the first are measured.
			observe := func() { m.ObserveTraffic(openLoopZone, 1) }
			train.onArrival, measured.onArrival = observe, observe
			measured.onServed = func(resp cloudsim.Response) {
				if resp.Cold {
					cell.Cold++
				}
			}
			var rep load.Report
			measured.out = &rep
			if err := w.serve(p, nil, false, train, measured); err != nil {
				return err
			}
			m.Stop()
			cell.Requests = int(rep.Requests)
			if cell.Requests > 0 {
				cell.ColdRate = float64(cell.Cold) / float64(cell.Requests)
			}
			cell.Latency, cell.Errors = rep.Latency, rep.Errors
			st := m.Snapshot()
			cell.Provisioned, cell.SkippedBudget = st.Provisioned, st.SkippedBudget
			cell.SpendUSD = w.rt.Cloud().WarmPoolSpend(w.rt.Client().Account())
			return nil
		})
		if err != nil {
			return EX11Result{}, fmt.Errorf("ex11: %s: %w", arm, err)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// Render produces the policy report.
func (r EX11Result) Render() string {
	out := fmt.Sprintf("EX-11 — predictive warm pooling vs the cold-start tax (%s in %s, day/night square wave %.0f rps peak, %v period x %d cycles, first cycle trains)\n\n",
		r.Workload, r.Zone, r.PeakRPS, r.Period, r.Cycles)
	t := tablefmt.New("arm", "requests", "cold", "cold rate", "p50 ms", "p99 ms", "provisioned", "spend USD")
	for _, c := range r.Cells {
		t.Row(c.Arm, c.Requests, c.Cold, tablefmt.Pct(c.ColdRate),
			fmt.Sprintf("%.0f", c.Latency.P50), fmt.Sprintf("%.0f", c.Latency.P99),
			c.Provisioned, fmt.Sprintf("%.6f", c.SpendUSD))
	}
	out += t.String()
	off, okO := r.Cell(EX11Off)
	re, okR := r.Cell(EX11Reactive)
	pr, okP := r.Cell(EX11Predictive)
	if okO && okR && okP {
		out += fmt.Sprintf("\nheadline: forecast-led pre-warming cut the cold-start rate from %s (no pool) and %s (reactive) to %s at $%.6f vs reactive's $%.6f provisioning spend\n",
			tablefmt.Pct(off.ColdRate), tablefmt.Pct(re.ColdRate), tablefmt.Pct(pr.ColdRate),
			pr.SpendUSD, re.SpendUSD)
	}
	if rs, ok := r.Cell(EX11ReactiveSpike); ok {
		if ps, ok2 := r.Cell(EX11PredictiveSpike); ok2 {
			out += fmt.Sprintf("under an %dx cold-start spike the served p99 gap widens: reactive %.0f ms vs predictive %.0f ms\n",
				ex11SpikeMagnitude, rs.Latency.P99, ps.Latency.P99)
		}
	}
	return out
}

// WriteCSV writes the policy table as one dataset.
func (r EX11Result) WriteCSV(dir string) error {
	t := tablefmt.New("arm", "mode", "spike", "requests", "cold", "cold_rate",
		"errors", "p50_ms", "p90_ms", "p95_ms", "p99_ms",
		"provisioned", "skipped_budget", "spend_usd")
	for _, c := range r.Cells {
		t.Row(c.Arm, string(c.Mode), c.Spike, c.Requests, c.Cold, c.ColdRate,
			c.Errors, c.Latency.P50, c.Latency.P90, c.Latency.P95, c.Latency.P99,
			c.Provisioned, c.SkippedBudget, c.SpendUSD)
	}
	return writeCSVFile(dir, "ex11_warmpool.csv", t)
}
