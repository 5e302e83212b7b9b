package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestEX8GoldenFrontier pins the overload story at benchmark scale, seed 42:
// past capacity the gate sheds explicitly and keeps the served tail flat,
// while the no-admission arm's throttle retries inflate the tail and burn
// attempt budgets into hard errors.
func TestEX8GoldenFrontier(t *testing.T) {
	res, err := RunEX8(EX8Config{Seed: 42}.Reduced())
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityRPS <= 0 {
		t.Fatalf("capacity estimate %v, want positive", res.CapacityRPS)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("got %d cells, want 2 arms x 4 multiples", len(res.Cells))
	}
	cell := func(arm string, m float64) EX8Cell {
		c, ok := res.Cell(arm, m)
		if !ok {
			t.Fatalf("missing cell %s %gx", arm, m)
		}
		return c
	}

	// The gate engages past capacity: explicit sheds at 2x, none at 0.5x.
	if got := cell(EX8Admission, 2).Report.Shed; got == 0 {
		t.Fatal("admission arm shed nothing at 2x capacity")
	}
	if got := cell(EX8Admission, 0.5).Report.Shed; got != 0 {
		t.Fatalf("admission arm shed %d requests under light load", got)
	}

	// Shedding buys a flat tail: served p99 at 2x stays within 2x of the
	// uncontended p99 (the acceptance bound; in practice they are equal).
	lightP99 := cell(EX8Admission, 0.5).Report.Latency.P99
	overP99 := cell(EX8Admission, 2).Report.Latency.P99
	if lightP99 <= 0 || overP99 > 2*lightP99 {
		t.Fatalf("admission served p99 %v ms at 2x vs %v ms at 0.5x, want within 2x", overP99, lightP99)
	}

	// Goodput holds at capacity even 3x over it.
	g1 := cell(EX8Admission, 1).Report.GoodputRPS
	g3 := cell(EX8Admission, 3).Report.GoodputRPS
	if g3 < 0.8*g1 {
		t.Fatalf("admission goodput collapsed: %v rps at 3x vs %v rps at 1x", g3, g1)
	}

	// The contrast: the retry-storm arm's tail inflates and it fails hard.
	naive2 := cell(EX8NoAdmission, 2).Report
	if naive2.Latency.P99 <= overP99 {
		t.Fatalf("no-admission p99 %v ms not above admission's %v ms at 2x", naive2.Latency.P99, overP99)
	}
	if naive2.Errors == 0 {
		t.Fatal("no-admission arm reported no errors at 2x capacity")
	}
	if got := cell(EX8Admission, 3).Report.Errors; got != 0 {
		t.Fatalf("admission arm reported %d hard errors; overload should shed, not fail", got)
	}
	// Sheds carry a usable Retry-After hint.
	if hint := cell(EX8Admission, 2).Report.MeanRetryAfterMS; hint <= 0 {
		t.Fatalf("mean Retry-After %v ms, want positive", hint)
	}

	out := res.Render()
	for _, want := range []string{"EX-8", "no-admission", "headline:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestEX8Deterministic: equal seeds replay the whole frontier exactly.
func TestEX8Deterministic(t *testing.T) {
	cfg := ex8Reduced
	cfg.multiples = []float64{0.5, 2}
	a, err := runEX8(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEX8(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different frontier:\n%+v\n%+v", a, b)
	}
	c, err := runEX8(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cells, c.Cells) {
		t.Fatal("different seeds produced identical cells")
	}
}

// TestEX8CSV exercises the dataset writer.
func TestEX8CSV(t *testing.T) {
	cfg := ex8Reduced
	cfg.multiples = []float64{1}
	res, err := runEX8(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
}
