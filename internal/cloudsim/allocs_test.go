package cloudsim

import (
	"testing"
	"time"
)

// TestWarmInvokeAllocs pins a warm invocation at zero heap allocations: a
// SleepBehavior request through StartInvoke, from send to hand-over, on an
// instance the previous request left warm. Every step is scheduled through
// the record's one bound continuation and the record is recycled at its
// last use (5 allocations a request before: the record and four method
// values; 0 under the race detector too).
func TestWarmInvokeAllocs(t *testing.T) {
	env, c := testWorld(t, plainAZ(1024), Options{})
	deploySleep(t, c, "fn", 10*time.Millisecond)
	req := Request{Account: "a", AZ: "test-az-1a", Function: "fn"}
	var resp Response
	done := func(r Response) { resp = r }
	invoke := func() {
		c.StartInvoke(req, done)
		if err := env.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	invoke() // the cold start provisions the instance
	if !resp.OK() || !resp.Cold {
		t.Fatalf("first invocation: err %v, cold %v", resp.Err, resp.Cold)
	}
	allocs := testing.AllocsPerRun(100, invoke)
	if !resp.OK() || resp.Cold {
		t.Fatalf("warm invocation: err %v, cold %v", resp.Err, resp.Cold)
	}
	if allocs != 0 {
		t.Errorf("a warm invocation allocates %.0f times, budget is 0", allocs)
	}
}

// TestChargeAllocs pins billing a charge at zero heap allocations, once the
// (label, bucket) pair has been charged before: through ChargeIn, which
// looks the pair up, and through the cell a request resolves once.
func TestChargeAllocs(t *testing.T) {
	m := NewMeter()
	cell := m.cell("acct", "r1")
	m.ChargeIn("acct", "r2", 1)
	if allocs := testing.AllocsPerRun(100, func() { m.ChargeIn("acct", "r2", 1) }); allocs != 0 {
		t.Errorf("ChargeIn allocates %.0f times, budget is 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { cell.charge(1) }); allocs != 0 {
		t.Errorf("meterCell.charge allocates %.0f times, budget is 0", allocs)
	}
}
