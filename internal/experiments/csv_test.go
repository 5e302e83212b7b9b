package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cpu"
	"skyfaas/internal/sampler"
	"skyfaas/internal/workload"
)

func readCSV(t *testing.T, dir, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(b)
}

func TestEX1WriteCSV(t *testing.T) {
	dir := t.TempDir()
	res := EX1Result{
		AZ: "us-west-1a",
		Sweep: []sampler.SweepPoint{
			{Sleep: 250 * time.Millisecond, MemoryMB: 2048, UniqueFIs: 999, CostUSD: 0.0093},
		},
		FirstAccount: []sampler.PollResult{
			{Requested: 999, NewFIs: 999},
			{Requested: 999, Failed: 999},
		},
		SecondAccount: []sampler.PollResult{
			{Requested: 999, Failed: 999, Reported: 0},
		},
	}
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	sweep := readCSV(t, dir, "fig3_sleep_sweep.csv")
	if !strings.HasPrefix(sweep, "sleep_ms,memory_mb,unique_fis,cost_usd\n") {
		t.Errorf("sweep header: %q", sweep)
	}
	if !strings.Contains(sweep, "250,2048,999") {
		t.Errorf("sweep row missing: %q", sweep)
	}
	sat := readCSV(t, dir, "fig4_saturation.csv")
	if !strings.Contains(sat, "a,1,999,0,0") || !strings.Contains(sat, "b,1,0,999,1") {
		t.Errorf("saturation rows missing: %q", sat)
	}
}

func TestEX2WriteCSV(t *testing.T) {
	dir := t.TempDir()
	res := EX2Result{
		Regions: []RegionChar{{
			Region: "us-west-2", Provider: 1, Samples: 1000, CostUSD: 0.05,
			Dist: charact.Dist{cpu.Xeon30: 0.45, cpu.Xeon25: 0.55},
		}},
	}
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, dir, "fig2_global_characterization.csv")
	if !strings.Contains(got, "us-west-2") || !strings.Contains(got, "0.45") {
		t.Errorf("csv = %q", got)
	}
	if !strings.Contains(got, "share_Xeon 3.00GHz") {
		t.Errorf("missing per-kind share columns: %q", got)
	}
}

func TestEX3EX4EX5WriteCSV(t *testing.T) {
	dir := t.TempDir()
	ex3 := EX3Result{Zones: []EX3Zone{{
		AZ: "z", APEByPoll: []float64{10, 2}, FIsByPoll: []int{999, 1998},
	}}}
	if err := ex3.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	if got := readCSV(t, dir, "fig5_progressive_sampling.csv"); !strings.Contains(got, "z,2,1998,2") {
		t.Errorf("ex3 csv = %q", got)
	}

	ex4 := EX4Result{
		Zones: []string{"z"},
		ByZone: map[string][]EX4Round{"z": {
			{Round: 0, PollsTo95: 3, FIsTo95: 2997, APEVsDay1: 0},
		}},
		HourlyAPE: []float64{0, 7.5},
	}
	if err := ex4.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	if got := readCSV(t, dir, "fig6_polls_to_accuracy.csv"); !strings.Contains(got, "z,1,3,2997") {
		t.Errorf("ex4 fig6 csv = %q", got)
	}
	if got := readCSV(t, dir, "fig8_hourly_variation.csv"); !strings.Contains(got, "1,7.5") {
		t.Errorf("ex4 fig8 csv = %q", got)
	}

	day := StrategyDay{Day: 0, CostUSD: 0.2, AZ: "z"}
	base := StrategyDay{Day: 0, CostUSD: 0.25, AZ: "b"}
	series := SavingsSeries{Days: []StrategyDay{day}, Baseline: []StrategyDay{base}}
	ex5 := EX5Result{
		NormalizedPerf: map[workload.ID]map[cpu.Kind]float64{
			workload.Zipper: {cpu.Xeon25: 1, cpu.Xeon30: 0.85},
		},
		ZipperRetrySlow:    series,
		ZipperFocusFastest: series,
		LogRegHybrid:       series,
		HybridByWorkload:   map[workload.ID]SavingsSeries{workload.Zipper: series},
	}
	if err := ex5.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	if got := readCSV(t, dir, "fig9_cpu_performance.csv"); !strings.Contains(got, "zipper,Xeon 3.00GHz,0.85") {
		t.Errorf("ex5 fig9 csv = %q", got)
	}
	if got := readCSV(t, dir, "fig10_zipper_retry.csv"); !strings.Contains(got, "1,0.25,0.2,0.2,0") {
		t.Errorf("ex5 fig10 csv = %q", got)
	}
	if got := readCSV(t, dir, "headline_hybrid_savings.csv"); !strings.Contains(got, "zipper,0.2") {
		t.Errorf("headline csv = %q", got)
	}
}

func TestSavingsSeriesMath(t *testing.T) {
	s := SavingsSeries{
		Days: []StrategyDay{
			{CostUSD: 0.8, RetryFrac: 0.5},
			{CostUSD: 0.9, RetryFrac: 0.2},
		},
		Baseline: []StrategyDay{
			{CostUSD: 1.0},
			{CostUSD: 1.0},
		},
	}
	if got := s.Cumulative(); got < 0.149 || got > 0.151 {
		t.Errorf("cumulative = %v, want 0.15", got)
	}
	if got := s.MaxDaily(); got < 0.199 || got > 0.201 {
		t.Errorf("max daily = %v, want 0.20", got)
	}
	if got := s.MaxRetryFrac(); got != 0.5 {
		t.Errorf("max retry = %v", got)
	}
	if (SavingsSeries{}).Cumulative() != 0 {
		t.Error("empty series cumulative != 0")
	}
}
