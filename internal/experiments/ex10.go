package experiments

import (
	"fmt"
	"time"

	"skyfaas/internal/load"
	"skyfaas/internal/rng"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/tenant"
	"skyfaas/internal/workload"
)

// EX-10 — multi-tenant fairness under an aggressor storm. Two tenants share
// one zone and one global admission gate: a steady tenant running at a
// modest fraction of capacity, and an aggressor firing a throttle storm
// several times over capacity. Under the global-only gate the two
// populations race for the same slots, so the aggressor's arrival-rate
// advantage translates directly into the victim's starvation — its goodput
// collapses to roughly the gate's overall admission probability. With
// per-tenant concurrency quotas layered in front (the skyd tenant
// registry's Acquire/Release governors), the aggressor saturates its own
// slot allowance and sheds there, the victim's traffic fits comfortably in
// the remainder, and its goodput and served p99 hold at the uncontended
// baseline.

// The three arms: the victim alone (baseline), both tenants with only the
// global gate, and both tenants with per-tenant quotas in front of it.
const (
	EX10Uncontended = "uncontended"
	EX10GlobalOnly  = "global-only"
	EX10PerTenant   = "per-tenant"
)

// The two tenant IDs.
const (
	EX10Victim    = "steady"
	EX10Aggressor = "storm"
)

// EX10Config parameterizes EX-10.
type EX10Config struct {
	Seed uint64
	// The quota and warmup.
	openLoop
	// Duration is the measured load span per cell (default 30s virtual).
	Duration time.Duration
	// VictimSlots / AggressorSlots are the per-tenant concurrency quotas in
	// the per-tenant arm. The defaults partition the gate's slot limit
	// (TargetUtil x Quota = 54): 34 slots give the victim's ~22 mean
	// in-flight comfortable headroom, 20 cap the aggressor.
	VictimSlots    int
	AggressorSlots int
}

const (
	// ex10VictimMultiple is the steady tenant's offered rate as a fraction
	// of the gate's estimated capacity.
	ex10VictimMultiple = 0.4
	// ex10StormMultiple is the aggressor's offered rate as a multiple of
	// estimated capacity: a sustained throttle storm.
	ex10StormMultiple = 4
)

func (c EX10Config) withDefaults() EX10Config {
	c.openLoop = c.openLoop.withDefaults()
	if c.Duration == 0 {
		c.Duration = 30 * time.Second
	}
	if c.VictimSlots == 0 {
		c.VictimSlots = 34
	}
	if c.AggressorSlots == 0 {
		c.AggressorSlots = 20
	}
	return c
}

// Reduced returns a benchmark-scale EX-10 (the same slot partition shape
// against a 30-quota world: limit 27 = 20 victim + 7 aggressor).
func (c EX10Config) Reduced() EX10Config {
	c = c.withDefaults()
	c.openLoop = c.openLoop.reduced()
	c.Duration = 12 * time.Second
	c.VictimSlots = 20
	c.AggressorSlots = 7
	return c
}

// EX10Cell is one arm's measurement: each tenant's load digest.
type EX10Cell struct {
	Arm string
	// CapacityRPS is the gate's capacity estimate, the same in every cell.
	CapacityRPS float64
	// Victim is the steady tenant's report; Aggressor is zero-valued in the
	// uncontended arm.
	Victim    load.Report
	Aggressor load.Report
}

// EX10Result carries the fairness comparison, cells in arm order.
type EX10Result struct {
	Workload workload.ID
	Zone     string
	Quota    int
	// CapacityRPS is the admission gate's estimated per-function capacity
	// both tenants' offered rates scale from.
	CapacityRPS    float64
	VictimSlots    int
	AggressorSlots int
	Cells          []EX10Cell
}

// Cell returns the named arm's measurement.
func (r EX10Result) Cell(arm string) (EX10Cell, bool) {
	return findCell(r.Cells, func(c EX10Cell) bool { return c.Arm == arm })
}

// Retention is the victim's goodput in the named arm as a fraction of its
// uncontended baseline — the experiment's fairness headline.
func (r EX10Result) Retention(arm string) float64 {
	base, okB := r.Cell(EX10Uncontended)
	c, okC := r.Cell(arm)
	if !okB || !okC || base.Victim.GoodputRPS == 0 {
		return 0
	}
	return c.Victim.GoodputRPS / base.Victim.GoodputRPS
}

// RunEX10 executes EX-10. Every arm runs in a fresh world: identical seed,
// characterization and warmup; only the tenant population and whether the
// per-tenant governors run differ.
func RunEX10(cfg EX10Config) (EX10Result, error) {
	cfg = cfg.withDefaults()
	res := EX10Result{
		Workload: openLoopWorkload, Zone: openLoopZone, Quota: cfg.Quota,
		VictimSlots: cfg.VictimSlots, AggressorSlots: cfg.AggressorSlots,
	}
	for _, arm := range []string{EX10Uncontended, EX10GlobalOnly, EX10PerTenant} {
		var cell EX10Cell
		err := cfg.runCell(cfg.Seed, 0, &res.CapacityRPS, func(p *sim.Proc, w *openLoopWorld) (err error) {
			cell, _, err = serveEX10(p, w, cfg, arm)
			return err
		})
		if err != nil {
			return EX10Result{}, fmt.Errorf("ex10: %s: %w", arm, err)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// serveEX10 runs one arm's tenants against w, returning the tenant
// registry too (nil outside the per-tenant arm).
func serveEX10(p *sim.Proc, w *openLoopWorld, cfg EX10Config, arm string) (EX10Cell, *tenant.Registry, error) {
	cell := EX10Cell{Arm: arm, CapacityRPS: w.capacity}
	w.spec.Retry = clientRetry
	// The per-tenant governors, present only in the per-tenant arm. The
	// registry's explicit-now API takes virtual time, so the same seed
	// replays the quota decisions bit-identically.
	var reg *tenant.Registry
	if arm == EX10PerTenant {
		reg = tenant.NewRegistry(tenant.Config{})
		for _, t := range []tenant.Tenant{
			{ID: EX10Victim, Name: "Steady tenant", Keys: []string{"sk-steady"}, QuotaSlots: cfg.VictimSlots},
			{ID: EX10Aggressor, Name: "Aggressor", Keys: []string{"sk-storm"}, QuotaSlots: cfg.AggressorSlots},
		} {
			if err := reg.Create(t, w.rt.Env().Now()); err != nil {
				return cell, nil, err
			}
		}
	}
	// Each tenant's schedule comes from its own seed stream, so the
	// aggressor's presence never perturbs the victim's arrival times across
	// arms.
	victim, err := constantStream(EX10Victim, ex10VictimMultiple*w.capacity, cfg.Duration, rng.New(cfg.Seed).Split("ex10/"+EX10Victim), &cell.Victim)
	if err != nil {
		return cell, nil, err
	}
	streams := []*stream{victim}
	if arm != EX10Uncontended {
		storm, err := constantStream(EX10Aggressor, ex10StormMultiple*w.capacity, cfg.Duration, rng.New(cfg.Seed).Split("ex10/"+EX10Aggressor), &cell.Aggressor)
		if err != nil {
			return cell, nil, err
		}
		streams = append(streams, storm)
	}
	err = w.serve(p, reg, true, streams...)
	return cell, reg, err
}

// Render produces the fairness report.
func (r EX10Result) Render() string {
	out := fmt.Sprintf("EX-10 — per-tenant fairness under an aggressor storm (%s in %s, quota %d, est. capacity %.1f rps, tenant slots %d/%d)\n\n",
		r.Workload, r.Zone, r.Quota, r.CapacityRPS, r.VictimSlots, r.AggressorSlots)
	t := tablefmt.New("arm", "tenant", "offered", "goodput", "retention", "shed", "errors", "p50 ms", "p99 ms")
	row := func(arm, tenantID string, rep load.Report, retention string) {
		t.Row(arm, tenantID,
			fmt.Sprintf("%.1f", rep.OfferedRPS), fmt.Sprintf("%.1f", rep.GoodputRPS), retention,
			fmt.Sprintf("%d (%s)", rep.Shed, tablefmt.Pct(rep.ShedRate)),
			rep.Errors,
			fmt.Sprintf("%.0f", rep.Latency.P50), fmt.Sprintf("%.0f", rep.Latency.P99))
	}
	for _, c := range r.Cells {
		row(c.Arm, EX10Victim, c.Victim, tablefmt.Pct(r.Retention(c.Arm)))
		if c.Arm != EX10Uncontended {
			row(c.Arm, EX10Aggressor, c.Aggressor, "-")
		}
	}
	out += t.String()
	if gOnly, ok := r.Cell(EX10GlobalOnly); ok {
		if perT, ok2 := r.Cell(EX10PerTenant); ok2 {
			out += fmt.Sprintf("\nheadline: the storm under a global-only gate starved the steady tenant to %s of its baseline goodput (p99 %.0f ms); per-tenant quotas held it at %s (p99 %.0f ms) while shedding %s of the aggressor\n",
				tablefmt.Pct(r.Retention(EX10GlobalOnly)), gOnly.Victim.Latency.P99,
				tablefmt.Pct(r.Retention(EX10PerTenant)), perT.Victim.Latency.P99,
				tablefmt.Pct(perT.Aggressor.ShedRate))
		}
	}
	return out
}

// WriteCSV writes the fairness table as one dataset.
func (r EX10Result) WriteCSV(dir string) error {
	t := tablefmt.New("arm", "tenant", "offered_rps", "goodput_rps", "achieved_rps",
		"requests", "ok", "shed", "errors", "p50_ms", "p90_ms", "p95_ms", "p99_ms",
		"mean_retry_after_ms", "retention")
	row := func(arm, tenantID string, rep load.Report, retention float64) {
		t.Row(arm, tenantID, rep.OfferedRPS, rep.GoodputRPS, rep.AchievedRPS,
			rep.Requests, rep.OK, rep.Shed, rep.Errors,
			rep.Latency.P50, rep.Latency.P90, rep.Latency.P95, rep.Latency.P99,
			rep.MeanRetryAfterMS, retention)
	}
	for _, c := range r.Cells {
		row(c.Arm, EX10Victim, c.Victim, r.Retention(c.Arm))
		if c.Arm != EX10Uncontended {
			row(c.Arm, EX10Aggressor, c.Aggressor, 0)
		}
	}
	return writeCSVFile(dir, "ex10_fairness.csv", t)
}
