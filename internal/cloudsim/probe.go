package cloudsim

import (
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/saaf"
)

// ProbeBehavior is the CPU-aware decision logic the paper adds to its
// workloads for the retry strategies (§3.5): on arrival the function
// inspects its instance's CPU; if the CPU is banned it *declines* —
// responding immediately so the caller can reissue, while holding the
// instance busy for HoldMS (billed) so the reissued request cannot land on
// it — otherwise it runs the workload.
type ProbeBehavior struct {
	// Work runs when the instance's CPU is acceptable.
	Work WorkBehavior
	// Banned is the bitmask of refused CPU kinds. A mask (not a map) keeps
	// the routing hot path allocation-free: the caller builds it once and
	// every issued invocation copies one word.
	Banned cpu.Mask
	// HoldMS is how long a declining instance is held (default 150 ms).
	HoldMS float64
	// KeepOnDecline returns the declining instance to the warm pool. By
	// default a declining function terminates its execution environment
	// (exiting the runtime process after responding, which platforms
	// honour by tearing the instance down). Termination is what keeps
	// retries convergent: a recycled banned instance would be warm-reused
	// by the very retry it triggered, feeding a self-sustaining decline
	// loop.
	KeepOnDecline bool
}

func (ProbeBehavior) isBehavior() {}

func (p ProbeBehavior) holdMS() float64 {
	if p.HoldMS <= 0 {
		return 150
	}
	return p.HoldMS
}

// ProbeOutcome is the Value a ProbeBehavior response carries.
type ProbeOutcome struct {
	// Ran is true when the workload executed; false when the instance
	// declined because its CPU was banned.
	Ran bool
	// RuntimeMS is the workload execution time (0 when declined).
	RuntimeMS float64
}

// probeDecisionMS is the time the in-function CPU check takes.
const probeDecisionMS = 2

// runProbe handles ProbeBehavior execution: it is invoked from start once
// the instance is initialized. It returns true when it fully handled the
// request (decline path), false when the caller should run the workload
// normally.
func (inv *invocation) runProbe(b ProbeBehavior) bool {
	c, az, dep, fi, acct := inv.c, inv.az, inv.dep, inv.fi, inv.acct
	// The in-function check reads cpuinfo, like the routing logic the
	// paper bakes into its dynamic functions.
	kind, _, err := cpu.ParseCPUInfo(cpu.CPUInfo(fi.host.kind, dep.vcpus()))
	if err != nil || !b.Banned.Has(kind) {
		return false
	}
	holdMS := b.holdMS()
	price := c.prices[az.region.spec.Provider]
	cost := price.Cost(dep.memoryMB, holdMS)
	acct.bill.charge(cost)
	inv.resp.CPU, inv.resp.BilledMS, inv.resp.CostUSD = kind, holdMS, cost
	inv.resp.Value = ProbeOutcome{Ran: false}

	// Respond as soon as the decision is made so the caller can reissue...
	inv.then(time.Duration(probeDecisionMS*float64(time.Millisecond)), (*invocation).decline)
	// ...but hold the instance (and the quota slot) for the full,
	// billed hold so the reissued request lands elsewhere. Afterwards the
	// instance self-terminates unless KeepOnDecline is set. The hold
	// outlives the request, whose record is another request's by then, so
	// it captures the account's standing rather than the record.
	keep := b.KeepOnDecline
	az.cloud.env.Schedule(time.Duration(holdMS*float64(time.Millisecond)), func() {
		acct.inflight--
		if keep {
			az.releaseFI(fi)
		} else {
			az.destroyFI(fi)
		}
	})
	return true
}

// decline answers a probe whose instance refused the request: runProbe has
// filled in the CPU, the bill and the outcome.
func (inv *invocation) decline() {
	fi, r := inv.fi, &inv.resp
	r.Profile, r.Err = saaf.Collect(cpu.CPUInfo(fi.host.kind, inv.dep.vcpus()), fi.num, fi.host.ID(), r.Cold, r.BilledMS)
	r.Host, r.Ended = fi.host.ID(), inv.c.env.Now()
	inv.respond()
}
