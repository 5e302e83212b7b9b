package core

import (
	"errors"
	"testing"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/tenant"
	"skyfaas/internal/workload"
)

// TestPipelineOrderAndUnwind walks one tenant through every ending the
// pipeline has: admitted and settled, shed by its own quota before the gate
// is asked, and shed by the gate with its lease handed back at no cost. The
// typed rejections come back unchanged, and everything ends at zero.
func TestPipelineOrderAndUnwind(t *testing.T) {
	now := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	reg := tenant.NewRegistry(tenant.Config{})
	if err := reg.Create(tenant.Tenant{ID: "t", Keys: []string{"k"}, QuotaSlots: 4}, now); err != nil {
		t.Fatal(err)
	}
	gate, err := admission.New(admission.Config{Slots: 3, TargetUtil: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(reg, gate, func() time.Time { return now })
	w := workload.Sha1Hash

	held, err := pl.Admit("t", w, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Over the tenant's quota: its own governor sheds, the gate never hears.
	var le *tenant.LimitError
	if _, err := pl.Admit("t", w, 3); !errors.As(err, &le) {
		t.Fatalf("over the tenant quota: err %v, want *tenant.LimitError", err)
	}
	if got := gate.Snapshot().Functions[0].Shed; got != 0 {
		t.Fatalf("a tenant shed reached the gate (%d sheds)", got)
	}
	// Inside the quota, over the gate: the lease is returned at no cost.
	var shed *admission.ShedError
	if _, err := pl.Admit("t", w, 2); !errors.As(err, &shed) {
		t.Fatalf("over the gate: err %v, want *admission.ShedError", err)
	}
	if u, _ := reg.Usage("t", now); u.Inflight != 2 || u.SpentUSD != 0 {
		t.Fatalf("after a gate shed the tenant holds %d slots and spent %v, want 2 and 0", u.Inflight, u.SpentUSD)
	}

	pl.Finish(held, 900, true, 0.25)
	if u, _ := reg.Usage("t", now); u.Inflight != 0 || u.SpentUSD != 0.25 {
		t.Fatalf("after Finish the tenant holds %d slots and spent %v, want 0 and 0.25", u.Inflight, u.SpentUSD)
	}
	if snap := gate.Snapshot(); snap.Inflight != 0 || snap.Functions[0].Observed.Count != 1 {
		t.Fatalf("after Finish the gate holds %d slots with %d observations, want 0 and 1",
			snap.Inflight, snap.Functions[0].Observed.Count)
	}

	// Both stages off: everything is admitted and nothing is held.
	open := NewPipeline(nil, nil, func() time.Time { return now })
	pass, err := open.Admit("", w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	open.Finish(pass, 900, true, 1)
}

// TestPipelineMetersOnItsClock: the pipeline reads time only through the
// clock it was given, so a budget bucket refills on that clock.
func TestPipelineMetersOnItsClock(t *testing.T) {
	now := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	reg := tenant.NewRegistry(tenant.Config{})
	poor := tenant.Tenant{ID: "p", Keys: []string{"k"}, BudgetPerHour: 1, BudgetCap: 1}
	if err := reg.Create(poor, now); err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(reg, nil, func() time.Time { return now })
	pass, err := pl.Admit("p", workload.Sha1Hash, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl.Finish(pass, 900, true, 2) // overdraws the bucket to -1 USD
	if _, err := pl.Admit("p", workload.Sha1Hash, 1); !errors.Is(err, tenant.ErrLimited) {
		t.Fatalf("overdrawn: err %v, want a budget shed", err)
	}
	now = now.Add(90 * time.Minute) // +1.5 USD of refill on the injected clock
	if _, err := pl.Admit("p", workload.Sha1Hash, 1); err != nil {
		t.Fatalf("after the refill on the pipeline's clock: %v", err)
	}
}
