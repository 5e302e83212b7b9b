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
	// ProfileRuns, when positive, overrides the scale's warmup profiling
	// runs (skybench -profile-runs).
	ProfileRuns int
	reduced     bool
}

// Reduced returns c at benchmark scale.
func (c EX11Config) Reduced() EX11Config { c.reduced = true; return c }

// ex11Preset is one scale of EX-11.
type ex11Preset struct {
	openLoop
	// peakRPS / period / cycles shape the square wave: each period spends
	// its first half at a trough of peakRPS/20 and its second half at
	// peakRPS (the plateau), cycles times. The near-silent trough is the
	// point: it must outlast ex11KeepAlive so pools drain, and the
	// vertical edge rewards the policy's foresight (or punishes its lack).
	// The first cycle trains the forecaster and is excluded from
	// measurement.
	peakRPS float64
	period  time.Duration
	cycles  int
	// tickEvery / lead tune the maintainer (the season is always period).
	tickEvery, lead time.Duration
	// floor is the pinned policy's fixed warm floor: peak concurrency on
	// the curve.
	floor int
}

var (
	// ex11Full is four 12-minute cycles at 10 rps peak.
	ex11Full = ex11Preset{openLoop: openLoopFull,
		peakRPS: 10, period: 12 * time.Minute, cycles: 4,
		tickEvery: 20 * time.Second, lead: 90 * time.Second, floor: 12}
	// ex11Reduced is the same curve shape compressed to three 6-minute
	// cycles at 6 rps peak.
	ex11Reduced = ex11Preset{openLoop: openLoopReduced,
		peakRPS: 6, period: 6 * time.Minute, cycles: 3,
		tickEvery: 15 * time.Second, lead: time.Minute, floor: 8}
)

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

// ex11Streams builds the square wave (each period at peakRPS/20, then
// peakRPS) as the first cycle, which trains the forecaster, and the
// measured rest. Each half-period segment draws from its own derived stream
// so the schedule is independent of how other segments consume randomness.
// The trough divides rather than multiplies by 0.05, so the reduced trough
// is exactly the double 0.3 (6*0.05 is not).
func ex11Streams(cfg ex11Preset, r *rng.Stream) (train, measured *stream, err error) {
	streams := []*stream{{}, {}}
	half := cfg.period / 2
	for cyc := 0; cyc < cfg.cycles; cyc++ {
		for i, rate := range []float64{cfg.peakRPS / 20, cfg.peakRPS} {
			seg, err := constantStream("", rate, half, r.SplitIndexed("seg", cyc*2+i), nil)
			if err != nil {
				return nil, nil, err
			}
			off := time.Duration(cyc)*cfg.period + time.Duration(i)*half
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
func RunEX11(c EX11Config) (EX11Result, error) {
	cfg := scaled(c.reduced, ex11Full, ex11Reduced)
	if c.ProfileRuns > 0 {
		cfg.profileRuns = c.ProfileRuns
	}
	res := EX11Result{
		Workload: openLoopWorkload, Zone: openLoopZone,
		PeakRPS: cfg.peakRPS, Period: cfg.period, Cycles: cfg.cycles,
	}
	var capacity float64
	for _, arm := range EX11Arms() {
		mode, spike := warmpool.Mode(strings.TrimSuffix(arm, "-spike")), strings.HasSuffix(arm, "-spike")
		cell := EX11Cell{Arm: arm, Mode: mode, Spike: spike}
		err := cfg.runCell(c.Seed, ex11KeepAlive, &capacity, func(p *sim.Proc, w *openLoopWorld) error {
			// The admission gate is not consulted: its service-time estimate
			// is the sizer's input.
			m, err := w.rt.EnableWarmPool(warmpool.Config{
				Zones:       []string{openLoopZone},
				Mode:        mode,
				TickEvery:   cfg.tickEvery,
				Window:      ex11Window,
				Season:      cfg.period,
				Lead:        cfg.lead,
				Gamma:       ex11Gamma,
				Floor:       cfg.floor,
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
					Start:     cfg.period,
					Duration:  time.Duration(cfg.cycles-1) * cfg.period,
					Magnitude: ex11SpikeMagnitude,
				}); err != nil {
					return err
				}
			}
			train, measured, err := ex11Streams(cfg, rng.New(c.Seed).Split("ex11/arrivals"))
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
