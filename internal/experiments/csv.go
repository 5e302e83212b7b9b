package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"skyfaas/internal/cpu"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/workload"
)

// This file emits each experiment's regenerated figure data as CSV, the
// machine-readable counterpart of the Render methods ("all source code and
// data sets are available" — we make the datasets real files).

func writeCSVFile(dir, name string, t *tablefmt.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: csv dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("experiments: csv: %w", err)
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

var awsKinds = []cpu.Kind{cpu.Xeon25, cpu.Xeon29, cpu.Xeon30, cpu.EPYC}

// WriteCSV emits fig3_sleep_sweep.csv and fig4_saturation.csv.
func (r EX1Result) WriteCSV(dir string) error {
	sweep := tablefmt.New("sleep_ms", "memory_mb", "unique_fis", "cost_usd")
	for _, pt := range r.Sweep {
		sweep.Row(pt.Sleep.Milliseconds(), pt.MemoryMB, pt.UniqueFIs, pt.CostUSD)
	}
	if err := writeCSVFile(dir, "fig3_sleep_sweep.csv", sweep); err != nil {
		return err
	}
	sat := tablefmt.New("account", "poll", "new_fis", "failed", "fail_frac")
	for i, pr := range r.FirstAccount {
		sat.Row("a", i+1, pr.NewFIs, pr.Failed, pr.FailFrac())
	}
	for i, pr := range r.SecondAccount {
		sat.Row("b", i+1, pr.Reported, pr.Failed, pr.FailFrac())
	}
	return writeCSVFile(dir, "fig4_saturation.csv", sat)
}

// WriteCSV emits fig2_global_characterization.csv.
func (r EX2Result) WriteCSV(dir string) error {
	header := []string{"region", "provider", "samples", "cost_usd"}
	for _, k := range cpu.Kinds() {
		header = append(header, "share_"+k.String())
	}
	t := tablefmt.New(header...)
	for _, rc := range r.Regions {
		row := []any{rc.Region, rc.Provider.String(), rc.Samples, rc.CostUSD}
		for _, k := range cpu.Kinds() {
			row = append(row, rc.Dist.Share(k))
		}
		t.Row(row...)
	}
	return writeCSVFile(dir, "fig2_global_characterization.csv", t)
}

// WriteCSV emits fig5_progressive_sampling.csv (one row per zone per poll).
func (r EX3Result) WriteCSV(dir string) error {
	t := tablefmt.New("zone", "poll", "cumulative_fis", "ape_pct")
	for _, z := range r.Zones {
		for i, ape := range z.APEByPoll {
			t.Row(z.AZ, i+1, z.FIsByPoll[i], ape)
		}
	}
	return writeCSVFile(dir, "fig5_progressive_sampling.csv", t)
}

// WriteCSV emits fig6_polls_to_accuracy.csv, fig7_temporal_degradation.csv
// and fig8_hourly_variation.csv.
func (r EX4Result) WriteCSV(dir string) error {
	t6 := tablefmt.New("zone", "round", "polls_to_95", "fis_to_95", "cost_usd")
	t7 := tablefmt.New("zone", "round", "ape_vs_day1_pct")
	for _, az := range r.Zones {
		for _, round := range r.ByZone[az] {
			t6.Row(az, round.Round+1, round.PollsTo95, round.FIsTo95, round.CostUSD)
			t7.Row(az, round.Round+1, round.APEVsDay1)
		}
	}
	if err := writeCSVFile(dir, "fig6_polls_to_accuracy.csv", t6); err != nil {
		return err
	}
	if err := writeCSVFile(dir, "fig7_temporal_degradation.csv", t7); err != nil {
		return err
	}
	t8 := tablefmt.New("hour", "ape_vs_hour0_pct")
	for i, v := range r.HourlyAPE {
		t8.Row(i, v)
	}
	return writeCSVFile(dir, "fig8_hourly_variation.csv", t8)
}

// WriteCSV emits fig9_cpu_performance.csv, fig10_zipper_retry.csv,
// fig11_region_hopping.csv and headline_hybrid_savings.csv.
func (r EX5Result) WriteCSV(dir string) error {
	ids := make([]workload.ID, 0, len(r.NormalizedPerf))
	for w := range r.NormalizedPerf {
		ids = append(ids, w)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	t9 := tablefmt.New("workload", "cpu", "runtime_vs_2_5ghz")
	for _, w := range ids {
		for _, k := range awsKinds {
			if v, ok := r.NormalizedPerf[w][k]; ok {
				t9.Row(w.String(), k.String(), v)
			}
		}
	}
	if err := writeCSVFile(dir, "fig9_cpu_performance.csv", t9); err != nil {
		return err
	}

	t10 := tablefmt.New("day", "baseline_usd", "retry_slow_usd", "focus_fastest_usd", "focus_retry_frac")
	for i := range r.ZipperFocusFastest.Days {
		t10.Row(i+1,
			r.ZipperFocusFastest.Baseline[i].CostUSD,
			r.ZipperRetrySlow.Days[i].CostUSD,
			r.ZipperFocusFastest.Days[i].CostUSD,
			r.ZipperFocusFastest.Days[i].RetryFrac)
	}
	if err := writeCSVFile(dir, "fig10_zipper_retry.csv", t10); err != nil {
		return err
	}

	t11 := tablefmt.New("day", "baseline_usd", "hybrid_usd", "zone")
	for i := range r.LogRegHybrid.Days {
		t11.Row(i+1, r.LogRegHybrid.Baseline[i].CostUSD, r.LogRegHybrid.Days[i].CostUSD, r.LogRegHybrid.Days[i].AZ)
	}
	if err := writeCSVFile(dir, "fig11_region_hopping.csv", t11); err != nil {
		return err
	}

	th := tablefmt.New("workload", "hybrid_cumulative_savings")
	for _, w := range ids {
		if s, ok := r.HybridByWorkload[w]; ok {
			th.Row(w.String(), s.Cumulative())
		}
	}
	return writeCSVFile(dir, "headline_hybrid_savings.csv", th)
}
