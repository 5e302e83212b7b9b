package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"skyfaas/internal/sim"
)

// TestEX10GoldenFairness pins the fairness story at benchmark scale, seed
// 42: per-tenant quotas hold the steady tenant's goodput at >= 95% of its
// uncontended baseline while the global-only gate lets the aggressor
// starve it.
func TestEX10GoldenFairness(t *testing.T) {
	res, err := RunEX10(EX10Config{Seed: 42}.Reduced())
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityRPS <= 0 {
		t.Fatalf("capacity estimate %v, want positive", res.CapacityRPS)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want 3 arms", len(res.Cells))
	}
	cell := func(arm string) EX10Cell {
		c, ok := res.Cell(arm)
		if !ok {
			t.Fatalf("missing cell %s", arm)
		}
		return c
	}

	// Baseline sanity: the victim alone runs clean at 40% of capacity.
	base := cell(EX10Uncontended)
	if base.Victim.Shed != 0 || base.Victim.Errors != 0 {
		t.Fatalf("uncontended victim shed=%d errors=%d, want clean run",
			base.Victim.Shed, base.Victim.Errors)
	}

	// The acceptance bound: per-tenant quotas keep the victim's goodput at
	// >= 95% of its uncontended baseline despite the 4x storm next door.
	if got := res.Retention(EX10PerTenant); got < 0.95 {
		t.Fatalf("per-tenant victim retention %.3f, want >= 0.95", got)
	}
	// ... while the global-only gate visibly starves it. The theoretical
	// admission share at 4.4x total offered load is ~23%; 0.6 leaves slack.
	if got := res.Retention(EX10GlobalOnly); got >= 0.6 {
		t.Fatalf("global-only victim retention %.3f, want visible starvation (< 0.6)", got)
	}

	// The served tail stays flat under per-tenant quotas: same shedding
	// regime as the baseline, so p99 within 2x (in practice equal).
	perT := cell(EX10PerTenant)
	if base.Victim.Latency.P99 <= 0 || perT.Victim.Latency.P99 > 2*base.Victim.Latency.P99 {
		t.Fatalf("per-tenant victim p99 %v ms vs baseline %v ms, want within 2x",
			perT.Victim.Latency.P99, base.Victim.Latency.P99)
	}

	// Fairness is not free lunch for the aggressor: its quota sheds most of
	// the storm, with a usable Retry-After hint, and no hard errors leak.
	if perT.Aggressor.ShedRate < 0.5 {
		t.Fatalf("per-tenant aggressor shed rate %.3f, want the quota to absorb the storm", perT.Aggressor.ShedRate)
	}
	if perT.Aggressor.MeanRetryAfterMS <= 0 {
		t.Fatalf("aggressor mean Retry-After %v ms, want positive", perT.Aggressor.MeanRetryAfterMS)
	}
	if perT.Victim.Errors != 0 || perT.Aggressor.Errors != 0 {
		t.Fatalf("per-tenant arm errors victim=%d aggressor=%d, want sheds not failures",
			perT.Victim.Errors, perT.Aggressor.Errors)
	}

	out := res.Render()
	for _, want := range []string{"EX-10", "global-only", "per-tenant", "headline:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestEX10Deterministic: equal seeds replay all three arms exactly.
func TestEX10Deterministic(t *testing.T) {
	cfg := EX10Config{Seed: 7}.Reduced()
	a, err := RunEX10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEX10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different result:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 8
	c, err := RunEX10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cells, c.Cells) {
		t.Fatal("different seeds produced identical cells")
	}
}

// TestEX10CSV exercises the dataset writer.
func TestEX10CSV(t *testing.T) {
	res, err := RunEX10(EX10Config{Seed: 42}.Reduced())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
}

// TestEX10ConservesMoney drives the per-tenant arm through the request
// pipeline and checks the money over its serve phase: what the tenant
// registry billed the two tenants adds up to what the cloud metered, every
// lease is back, and the storm was shed at the tenant stage along the way.
func TestEX10ConservesMoney(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		var capacity, billed, metered float64
		var inflight int
		var cell EX10Cell
		err := ex10Reduced.runCell(seed, 0, &capacity, func(p *sim.Proc, w *openLoopWorld) error {
			meter := w.rt.Cloud().Meter()
			before := meter.GrandTotal()
			c, reg, err := serveEX10(p, w, seed, ex10Reduced, EX10PerTenant)
			cell, metered = c, meter.GrandTotal()-before
			for _, u := range reg.Usages(w.rt.Env().Now()) {
				billed += u.SpentUSD
				inflight += u.Inflight
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if billed <= 0 || math.Abs(billed-metered) > 1e-12 {
			t.Errorf("seed %d: tenants billed %.12f USD, the cloud metered %.12f USD over the serve phase", seed, billed, metered)
		}
		if inflight != 0 {
			t.Errorf("seed %d: tenants still hold %d leases", seed, inflight)
		}
		if cell.Aggressor.Shed == 0 {
			t.Errorf("seed %d: the storm was never shed", seed)
		}
	}
}
