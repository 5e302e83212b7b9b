package experiments

import (
	"fmt"
	"time"

	"skyfaas/internal/load"
	"skyfaas/internal/rng"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/workload"
)

// EX-8 — the throughput/latency frontier under overload, with and without
// admission control. A single zone with a deliberately small concurrency
// quota is driven by an open-loop arrival schedule swept from well under to
// well past the gate's estimated capacity. The no-admission arm does what
// naive clients do: retry throttles with exponential backoff, which under
// sustained overload turns into a retry storm — served latency inflates
// with accumulated backoffs and the excess eventually burns its whole
// attempt budget and errors out. The admission arm consults the
// characterization-seeded gate first: excess arrivals are shed immediately
// (the HTTP layer's typed 429), admitted work runs against a capped
// concurrency that never reaches the quota, and the served-latency tail
// stays flat while goodput holds at capacity.

// EX8NoAdmission and EX8Admission label the two arms.
const (
	EX8NoAdmission = "no-admission"
	EX8Admission   = "admission"
)

// EX8Config parameterizes EX-8.
type EX8Config struct {
	Seed    uint64
	reduced bool
}

// Reduced returns c at benchmark scale.
func (c EX8Config) Reduced() EX8Config { c.reduced = true; return c }

// ex8Preset is one scale of EX-8.
type ex8Preset struct {
	openLoop
	// duration is the measured load span per cell (virtual).
	duration time.Duration
	// multiples are the offered-rate sweep points as fractions of the
	// gate's estimated capacity.
	multiples []float64
}

var (
	ex8Full    = ex8Preset{openLoop: openLoopFull, duration: 30 * time.Second, multiples: []float64{0.5, 1, 1.5, 2, 2.5, 3}}
	ex8Reduced = ex8Preset{openLoop: openLoopReduced, duration: 12 * time.Second, multiples: []float64{0.5, 1, 2, 3}}
)

// EX8Cell is one (arm, offered rate) measurement.
type EX8Cell struct {
	Arm string
	// Multiple is the offered rate as a fraction of estimated capacity.
	Multiple float64
	// CapacityRPS is the gate's capacity estimate, the same in every cell.
	CapacityRPS float64
	// Report is the load digest: goodput, shed/error breakdown, latency
	// quantiles of served requests.
	Report load.Report
}

// EX8Result carries the frontier: cells in (arm, multiple) sweep order.
type EX8Result struct {
	Workload workload.ID
	Zone     string
	Quota    int
	// CapacityRPS is the admission gate's estimated per-function capacity
	// that the sweep multiples scale.
	CapacityRPS float64
	Cells       []EX8Cell
}

// Cell returns the named arm's measurement at the given multiple.
func (r EX8Result) Cell(arm string, multiple float64) (EX8Cell, bool) {
	return findCell(r.Cells, func(c EX8Cell) bool { return c.Arm == arm && c.Multiple == multiple })
}

// RunEX8 executes EX-8. Every cell runs in a fresh world: identical seed,
// characterization and warmup; only the offered rate and whether the
// admission gate is consulted differ.
func RunEX8(c EX8Config) (EX8Result, error) {
	return runEX8(c.Seed, scaled(c.reduced, ex8Full, ex8Reduced))
}

func runEX8(seed uint64, cfg ex8Preset) (EX8Result, error) {
	res := EX8Result{Workload: openLoopWorkload, Zone: openLoopZone, Quota: cfg.quota}
	for _, arm := range []string{EX8NoAdmission, EX8Admission} {
		for _, m := range cfg.multiples {
			cell := EX8Cell{Arm: arm, Multiple: m}
			err := cfg.runCell(seed, 0, &res.CapacityRPS, func(p *sim.Proc, w *openLoopWorld) error {
				cell.CapacityRPS, w.spec.Retry = w.capacity, clientRetry
				s, err := constantStream("", m*w.capacity, cfg.duration, rng.New(seed).Split("ex8/arrivals"), &cell.Report)
				if err != nil {
					return err
				}
				return w.serve(p, nil, arm == EX8Admission, s)
			})
			if err != nil {
				return EX8Result{}, fmt.Errorf("ex8: %s %gx: %w", arm, m, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Render produces the frontier report.
func (r EX8Result) Render() string {
	out := fmt.Sprintf("EX-8 — throughput/latency frontier under overload (%s in %s, quota %d, est. capacity %.1f rps)\n\n",
		r.Workload, r.Zone, r.Quota, r.CapacityRPS)
	t := tablefmt.New("arm", "xcap", "offered", "goodput", "served", "shed", "errors", "p50 ms", "p99 ms")
	for _, c := range r.Cells {
		rep := c.Report
		t.Row(c.Arm, fmt.Sprintf("%.1fx", c.Multiple),
			fmt.Sprintf("%.1f", rep.OfferedRPS), fmt.Sprintf("%.1f", rep.GoodputRPS),
			rep.OK, fmt.Sprintf("%d (%s)", rep.Shed, tablefmt.Pct(rep.ShedRate)),
			fmt.Sprintf("%d (%s)", rep.Errors, tablefmt.Pct(rep.ErrorRate)),
			fmt.Sprintf("%.0f", rep.Latency.P50), fmt.Sprintf("%.0f", rep.Latency.P99))
	}
	out += t.String()
	naive, okN := r.Cell(EX8NoAdmission, 2)
	gated, okG := r.Cell(EX8Admission, 2)
	if okN && okG && gated.Report.Latency.P99 > 0 {
		out += fmt.Sprintf("\nheadline: at 2x capacity the gate shed %s of arrivals and held served p99 at %.0f ms; the retry-storm arm reached %.0f ms (%.1fx) with %s hard errors\n",
			tablefmt.Pct(gated.Report.ShedRate), gated.Report.Latency.P99,
			naive.Report.Latency.P99, naive.Report.Latency.P99/gated.Report.Latency.P99,
			tablefmt.Pct(naive.Report.ErrorRate))
	}
	return out
}

// WriteCSV writes the frontier table as one dataset.
func (r EX8Result) WriteCSV(dir string) error {
	t := tablefmt.New("arm", "multiple", "offered_rps", "goodput_rps", "achieved_rps",
		"requests", "ok", "shed", "errors", "p50_ms", "p90_ms", "p95_ms", "p99_ms", "max_inflight")
	for _, c := range r.Cells {
		rep := c.Report
		t.Row(c.Arm, c.Multiple, rep.OfferedRPS, rep.GoodputRPS, rep.AchievedRPS,
			rep.Requests, rep.OK, rep.Shed, rep.Errors,
			rep.Latency.P50, rep.Latency.P90, rep.Latency.P95, rep.Latency.P99, rep.MaxInFlight)
	}
	return writeCSVFile(dir, "ex8_frontier.csv", t)
}
