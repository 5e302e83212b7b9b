package experiments

import (
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/router"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/workload"
)

// RetryTradeoffResult quantifies §4.6's latency/cost trade-off for the
// aggressive retry strategy on a 1,000-invocation burst.
type RetryTradeoffResult struct {
	// RetriesPerCompletion is the mean number of declined placements each
	// completed invocation paid for (the paper reports ~5 on us-west-1b
	// when focusing the 3.0 GHz Xeon... at its share that day).
	RetriesPerCompletion float64
	// HoldCostUSD is the total billed hold spend (the paper reports
	// ~$0.03 for the 1,000-invocation workload).
	HoldCostUSD float64
	// AddedLatencyMS is the extra burst wall time versus the no-retry
	// baseline. Each retried *request* is deferred by hold + cold-start
	// per round (§4.6's latency concern); at batch concurrency the wall
	// delta can even go negative, because the focused runs are faster and
	// drain the batch sooner — which is why the paper recommends the
	// method for asynchronous batch workloads.
	AddedLatencyMS float64
	// SavingsFrac is the burst cost saving versus the baseline.
	SavingsFrac float64
}

// RunRetryTradeoff runs a baseline and a focus-fastest burst of 1,000
// zipper invocations on us-west-1b and reports the §4.6 quantities.
func RunRetryTradeoff(cfg StudyConfig) (RetryTradeoffResult, error) {
	const az = "us-west-1b"
	var res RetryTradeoffResult
	world := core.Config{Seed: cfg.Seed, CloudOpts: cloudsim.Options{HorizonDays: 3}}
	err := inWorld(world, func(rt *core.Runtime, p *sim.Proc) error {
		if _, err := rt.Router().Profile(p, workload.Zipper, []string{az}, 1200, 0); err != nil {
			return err
		}
		p.Sleep(6 * time.Minute)
		if _, err := rt.Refresh(p, []string{az}, 6); err != nil {
			return err
		}
		base, err := rt.Run(p, router.BurstSpec{
			Strategy: router.Baseline{AZ: az}, Workload: workload.Zipper, N: 1000,
		})
		if err != nil {
			return err
		}
		p.Sleep(6 * time.Minute)
		focus, err := rt.Run(p, router.BurstSpec{
			Strategy: router.FocusFastest{AZ: az}, Workload: workload.Zipper, N: 1000,
		})
		if err != nil {
			return err
		}
		res.RetriesPerCompletion = float64(focus.Declined) / float64(focus.Completed)
		// Each decline bills exactly the 150 ms hold at the burst memory.
		zone, _ := rt.Cloud().AZ(az)
		price := rt.Cloud().Price(zone.Region().Provider())
		res.HoldCostUSD = float64(focus.Declined) * price.Cost(4096, 150)
		res.AddedLatencyMS = float64(focus.Elapsed-base.Elapsed) / float64(time.Millisecond)
		if base.CostUSD > 0 {
			res.SavingsFrac = 1 - focus.CostUSD/base.CostUSD
		}
		return nil
	})
	if err != nil {
		return RetryTradeoffResult{}, err
	}
	return res, nil
}

func (r RetryTradeoffResult) table() *tablefmt.Table {
	t := tablefmt.New("quantity", "value")
	t.Row("retries per completion", r.RetriesPerCompletion)
	t.Row("hold cost USD", r.HoldCostUSD)
	t.Row("added latency ms", r.AddedLatencyMS)
	t.Row("savings %", r.SavingsFrac*100)
	return t
}

// Render produces the trade-off table.
func (r RetryTradeoffResult) Render() string {
	return "§4.6 retry trade-off — 1,000-invocation focus-fastest zipper burst on us-west-1b vs baseline\n" + r.table().String()
}

// WriteCSV emits tradeoff.csv.
func (r RetryTradeoffResult) WriteCSV(dir string) error {
	return writeCSVFile(dir, "tradeoff.csv", r.table())
}
