package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func runEX7Reduced(t *testing.T, seed uint64) EX7Result {
	t.Helper()
	res, err := RunEX7(EX7Config{Seed: seed}.Reduced())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEX7Reduced checks the experiment's headline claims: under the
// drift-burst chaos, drift-triggered refresh recovers routing quality the
// sample-once baseline loses, while spending well under half of what naive
// periodic re-sampling does on maintenance. The pinned seed is one where
// the regime change hurts the drifted zone — on neutral draws all arms
// tie and there is nothing to measure (see ex7DriftEvery in ex7.go).
func TestEX7Reduced(t *testing.T) {
	res := runEX7Reduced(t, 7)
	if len(res.Cells) != len(DefaultEX7Arms()) {
		t.Fatalf("cells = %d, want %d", len(res.Cells), len(DefaultEX7Arms()))
	}
	cell := func(arm string) EX7Cell {
		c, ok := res.Cell(arm)
		if !ok {
			t.Fatalf("missing cell %s", arm)
		}
		return c
	}
	static, periodic, drift := cell("static-once"), cell("periodic"), cell("drift")

	// Every arm routed the same traffic through the same drifting sky.
	for _, c := range res.Cells {
		if c.Completed == 0 {
			t.Fatalf("%s completed nothing", c.Arm)
		}
		if c.TargetAZ != static.TargetAZ {
			t.Errorf("%s drift target %s != %s (cells must share the world)", c.Arm, c.TargetAZ, static.TargetAZ)
		}
	}

	// The sample-once baseline never refreshes, by construction.
	if static.Refreshes != 0 || static.RefreshUSD != 0 {
		t.Errorf("static-once refreshed: %+v", static)
	}

	// Acceptance criterion 1: drift-triggered refresh beats sample-once on
	// fast-CPU hit rate (the drifted model keeps routing to yesterday's
	// favorite; the refreshed one re-decides).
	if drift.FastRate <= static.FastRate+0.05 {
		t.Errorf("drift fast-rate %.3f vs static %.3f, want a clear win", drift.FastRate, static.FastRate)
	}

	// Acceptance criterion 2: the win costs < 50%% of naive periodic
	// re-sampling's refresh budget.
	if drift.RefreshUSD <= 0 {
		t.Error("drift arm never spent on refresh — the detector never fired")
	}
	if periodic.RefreshUSD <= 0 {
		t.Error("periodic arm never spent on refresh")
	}
	if drift.RefreshUSD >= 0.5*periodic.RefreshUSD {
		t.Errorf("drift refresh $%.4f vs periodic $%.4f, want < 50%%", drift.RefreshUSD, periodic.RefreshUSD)
	}
	if drift.Refreshes >= periodic.Refreshes {
		t.Errorf("drift refreshes %d vs periodic %d, want fewer", drift.Refreshes, periodic.Refreshes)
	}

	out := res.Render()
	for _, arm := range DefaultEX7Arms() {
		if !strings.Contains(out, arm.Label) {
			t.Errorf("render missing arm %s", arm.Label)
		}
	}
	if !strings.Contains(out, "headline") {
		t.Error("render missing the headline comparison")
	}
}

// TestEX7Determinism: two same-seed runs must agree bit for bit — the
// control loop, drift scoring, and budget accounting are all functions of
// the seed.
func TestEX7Determinism(t *testing.T) {
	a, b := runEX7Reduced(t, 7), runEX7Reduced(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed EX-7 diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestEX7CSV(t *testing.T) {
	res := runEX7Reduced(t, 42)
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
}
