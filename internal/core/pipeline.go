package core

import (
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/tenant"
	"skyfaas/internal/workload"
)

// Pipeline is the one request path every served invocation takes, whether
// skyd answers it over HTTP or an experiment replays it in virtual time:
// the tenant's governors, then the global admission gate, then the caller
// serves the request, then the gate and the tenant are settled in reverse.
// The order is the isolation property: a tenant over its own quota or
// budget sheds before the gate is consulted, so its storm never occupies
// global capacity another tenant needs.
//
// The clock is injected: skyd meters on the wall clock, the experiments on
// their simulation's virtual clock. Either stage may be off (nil).
type Pipeline struct {
	tenants *tenant.Registry
	gate    *admission.Controller
	now     func() time.Time
}

// NewPipeline assembles the request path over a tenant registry and an
// admission gate; a nil registry or gate turns that stage off.
func NewPipeline(tenants *tenant.Registry, gate *admission.Controller, now func() time.Time) *Pipeline {
	return &Pipeline{tenants: tenants, gate: gate, now: now}
}

// Pass is an admitted request's hold on the pipeline: the tenant lease and
// the gate ticket. Hand it back to Finish exactly once.
type Pass struct {
	lease  tenant.Lease
	ticket admission.Ticket
}

// Admit asks for n concurrent invocations of w on behalf of tenant id (id
// is ignored when the tenant stage is off). A rejection comes back as the
// stage's own typed error, *tenant.LimitError or *admission.ShedError, and
// holds nothing: a gate shed returns the tenant's slots at no cost.
func (pl *Pipeline) Admit(id string, w workload.ID, n int) (Pass, error) {
	var p Pass
	if pl.tenants != nil {
		lease, err := pl.tenants.Acquire(id, n, pl.now())
		if err != nil {
			return Pass{}, err
		}
		p.lease = lease
	}
	if pl.gate != nil {
		ticket, err := pl.gate.Admit(pl.now(), w, n)
		if err != nil {
			if pl.tenants != nil {
				pl.tenants.Release(p.lease, pl.now(), 0)
			}
			return Pass{}, err
		}
		p.ticket = ticket
	}
	return p, nil
}

// Finish settles a served request: the gate frees its slots and learns the
// observed service time (milliseconds; only from successes), then the
// tenant frees its slots and is billed what the request cost, successful
// or not.
func (pl *Pipeline) Finish(p Pass, serviceMS float64, ok bool, costUSD float64) {
	end := pl.now()
	if pl.gate != nil {
		pl.gate.Done(p.ticket, end, serviceMS, ok)
	}
	if pl.tenants != nil {
		pl.tenants.Release(p.lease, end, costUSD)
	}
}
