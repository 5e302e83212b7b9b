package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestEX11GoldenWarmPool pins the warm-pool story at benchmark scale, seed
// 42: the bare platform pays the cold-start tax at every rising edge of
// the square wave, pinning eliminates it at roughly double the adaptive
// spend, reactive sizing pays real hold spend while staying one edge
// behind, and predictive sizing cuts the cold-start rate at spend equal to
// reactive's (within the pre-warm initialization cost).
func TestEX11GoldenWarmPool(t *testing.T) {
	res, err := RunEX11(EX11Config{Seed: 42}.Reduced())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("got %d cells, want 6 arms", len(res.Cells))
	}
	cell := func(arm string) EX11Cell {
		c, ok := res.Cell(arm)
		if !ok {
			t.Fatalf("missing cell %s", arm)
		}
		return c
	}
	off := cell(EX11Off)
	pin := cell(EX11Pinned)
	re := cell(EX11Reactive)
	pr := cell(EX11Predictive)
	rs := cell(EX11ReactiveSpike)
	ps := cell(EX11PredictiveSpike)

	// Every arm replays the identical arrival schedule.
	for _, c := range res.Cells {
		if c.Requests != off.Requests || c.Requests == 0 {
			t.Fatalf("cell %s measured %d requests, want %d identical arrivals",
				c.Arm, c.Requests, off.Requests)
		}
		if c.Errors != 0 {
			t.Fatalf("cell %s had %d errors, want clean runs", c.Arm, c.Errors)
		}
	}

	// The baseline: no pool, no spend, a cold start for every concurrency
	// slot the rising edges re-warm organically.
	if off.Cold == 0 || off.SpendUSD != 0 || off.Provisioned != 0 {
		t.Fatalf("off cell = %+v, want cold starts at zero spend", off)
	}

	// Pinning the peak floor eliminates cold starts — at well over the
	// adaptive policies' spend (it holds capacity through every trough).
	if pin.Cold != 0 {
		t.Fatalf("pinned cold = %d, want 0 (floor holds peak capacity)", pin.Cold)
	}
	if pin.SpendUSD < 1.5*re.SpendUSD {
		t.Fatalf("pinned spend %.6f vs reactive %.6f, want the trough-holding premium (>= 1.5x)",
			pin.SpendUSD, re.SpendUSD)
	}

	// Reactive pays real hold spend but its floor arrives one edge behind:
	// no cold-start improvement over the bare platform on this curve.
	if re.SpendUSD <= 0 {
		t.Fatalf("reactive spend = %.6f, want positive hold spend", re.SpendUSD)
	}
	if re.Cold < off.Cold {
		t.Fatalf("reactive cold %d < off %d: the recent-rate floor should not beat organic warming on a square wave",
			re.Cold, off.Cold)
	}

	// The acceptance bound: predictive pre-warming cuts the cold-start
	// rate vs reactive at equal spend (<= 2% over, the initialization
	// cost), and it genuinely provisions rather than riding organic warmth.
	if pr.Provisioned == 0 {
		t.Fatal("predictive never provisioned: the forecast is not actuating")
	}
	if pr.ColdRate >= 0.8*re.ColdRate {
		t.Fatalf("predictive cold rate %.4f vs reactive %.4f, want >= 20%% cut",
			pr.ColdRate, re.ColdRate)
	}
	if pr.SpendUSD > 1.02*re.SpendUSD {
		t.Fatalf("predictive spend %.6f vs reactive %.6f, want equal within 2%%",
			pr.SpendUSD, re.SpendUSD)
	}

	// Under an 8x cold-start spike every unprevented cold start costs
	// more: the predictive-vs-reactive gap widens in both cold count and
	// served tail latency.
	if ps.Cold >= rs.Cold {
		t.Fatalf("spike: predictive cold %d vs reactive %d, want fewer", ps.Cold, rs.Cold)
	}
	if ps.Latency.P99 >= rs.Latency.P99 {
		t.Fatalf("spike: predictive p99 %.0f ms vs reactive %.0f ms, want lower",
			ps.Latency.P99, rs.Latency.P99)
	}

	// The budget governor held: nobody outspent the cap plus the refill.
	for _, c := range res.Cells {
		if c.SpendUSD > 1.0 {
			t.Fatalf("cell %s spent %.6f, want the budget to bound spend under the 1.00 cap", c.Arm, c.SpendUSD)
		}
	}

	out := res.Render()
	for _, want := range []string{"EX-11", "predictive", "pinned", "headline:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestEX11Deterministic: equal seeds replay all six arms exactly, and a
// different seed does not.
func TestEX11Deterministic(t *testing.T) {
	cfg := EX11Config{Seed: 7}.Reduced()
	a, err := RunEX11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEX11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different result:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 8
	d, err := RunEX11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cells, d.Cells) {
		t.Fatal("different seeds produced identical cells")
	}
}

// TestEX11CSV exercises the dataset writer.
func TestEX11CSV(t *testing.T) {
	res, err := RunEX11(EX11Config{Seed: 42}.Reduced())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
}
