package admission

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skyfaas/internal/metrics"
	"skyfaas/internal/workload"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Slots: 10}).Validate(); err != nil {
		t.Fatalf("defaulted config rejected: %v", err)
	}
	bad := []Config{
		{Slots: 0},
		{Slots: 10, TargetUtil: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestAdmitUntilLimitThenShed(t *testing.T) {
	c := newController(t, Config{Slots: 10, TargetUtil: 0.8})
	var tickets []Ticket
	for i := 0; i < 8; i++ {
		tk, err := c.Admit(t0, workload.Sha1Hash, 1)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	_, err := c.Admit(t0, workload.Sha1Hash, 1)
	if err == nil {
		t.Fatal("ninth admit at limit 8 succeeded")
	}
	if !errors.Is(err, ErrShed) {
		t.Fatalf("shed error does not wrap ErrShed: %v", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("shed error is not *ShedError: %T", err)
	}
	if shed.RetryAfter < 100*time.Millisecond || shed.RetryAfter > 5*time.Second {
		t.Errorf("retry-after %v outside clamp window", shed.RetryAfter)
	}
	if shed.Inflight != 8 || shed.Limit != 8 {
		t.Errorf("shed context = %d/%d, want 8/8", shed.Inflight, shed.Limit)
	}

	// Releasing one slot re-opens the gate.
	c.Done(tickets[0], t0.Add(time.Second), 900, true)
	if _, err := c.Admit(t0.Add(time.Second), workload.Sha1Hash, 1); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}

// TestAdmitDoneAllocs pins the gate's per-request cost: an admitted request
// and its completion, the pair every burst through skyd pays, must not
// allocate.
func TestAdmitDoneAllocs(t *testing.T) {
	c := newController(t, Config{Slots: 900})
	allocs := testing.AllocsPerRun(1000, func() {
		tk, err := c.Admit(t0, workload.Sha1Hash, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.Done(tk, t0, 50, true)
	})
	if allocs != 0 {
		t.Errorf("Admit+Done allocates %.1f times per request, budget is 0", allocs)
	}
}

func TestDisabledNeverSheds(t *testing.T) {
	c := newController(t, Config{Slots: 2})
	off := false
	if err := c.Apply(Retune{Enabled: &off}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Admit(t0, workload.Thumbnailer, 1); err != nil {
			t.Fatalf("disabled gate shed request %d: %v", i, err)
		}
	}
	snap := c.Snapshot()
	if snap.Enabled {
		t.Error("snapshot reports the gate enabled after Apply(Enabled: false)")
	}
	if snap.Utilization < 20 {
		t.Errorf("disabled gate should still track inflight; utilization %v", snap.Utilization)
	}
}

func TestServiceTimeEWMAAndCapacity(t *testing.T) {
	c := newController(t, Config{Slots: 100, TargetUtil: 0.9})
	// Catalog fallback for sha1_hash is BaseMS=900 → capacity 0.9*100*1000/900 = 100.
	if got := c.CapacityRPS(workload.Sha1Hash); got < 99 || got > 101 {
		t.Fatalf("fallback capacity = %v, want ~100", got)
	}
	// Seed from a characterization: 450ms doubles capacity.
	c.Seed(workload.Sha1Hash, 450)
	if got := c.CapacityRPS(workload.Sha1Hash); got < 199 || got > 201 {
		t.Fatalf("seeded capacity = %v, want ~200", got)
	}
	// Observed service times move the EWMA: alpha .2, obs 900 → 540ms.
	tk, _ := c.Admit(t0, workload.Sha1Hash, 1)
	c.Done(tk, t0.Add(time.Second), 900, true)
	snap := c.Snapshot()
	if len(snap.Functions) != 1 || snap.Functions[0].ServiceMS != 540 {
		t.Fatalf("EWMA after one obs: %+v", snap.Functions)
	}
	if snap.Functions[0].Observed.Count != 1 {
		t.Errorf("observed histogram count = %d, want 1", snap.Functions[0].Observed.Count)
	}
	// Failed requests must not pollute the estimate.
	tk, _ = c.Admit(t0, workload.Sha1Hash, 1)
	c.Done(tk, t0.Add(time.Second), 60000, false)
	if got := c.Snapshot().Functions[0].ServiceMS; got != 540 {
		t.Errorf("failure moved EWMA to %v", got)
	}
}

func TestPressureRouteCache(t *testing.T) {
	c := newController(t, Config{Slots: 4, TargetUtil: 1})
	c.RememberRoute(workload.Zipper, "aws/us-east-1/a", t0)
	// Two of four slots is under the pressure threshold of 0.75.
	tk1, _ := c.Admit(t0, workload.Zipper, 1)
	tk2, _ := c.Admit(t0, workload.Zipper, 1)
	if _, ok := c.RouteFor(workload.Zipper, t0); ok {
		t.Fatal("route served while unpressured")
	}
	// Cross the pressure threshold.
	tk3, _ := c.Admit(t0, workload.Zipper, 1)
	if !c.Snapshot().Pressured {
		t.Fatal("not pressured at 3/4")
	}
	az, ok := c.RouteFor(workload.Zipper, t0.Add(routeTTL/2))
	if !ok || az != "aws/us-east-1/a" {
		t.Fatalf("pressured route = %q, %v; want cached az", az, ok)
	}
	// TTL expiry invalidates the pin.
	if _, ok := c.RouteFor(workload.Zipper, t0.Add(2*routeTTL)); ok {
		t.Fatal("expired route served")
	}
	c.Done(tk1, t0, 100, true)
	c.Done(tk2, t0, 100, true)
	c.Done(tk3, t0, 100, true)
	if c.Snapshot().Pressured {
		t.Error("still pressured after drain")
	}
}

func TestApplyRetune(t *testing.T) {
	c := newController(t, Config{Slots: 10})
	off := false
	if err := c.Apply(Retune{Enabled: &off, Slots: 20, TargetUtil: 0.5}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	snap := c.Snapshot()
	if snap.Enabled || snap.Slots != 20 || snap.TargetUtil != 0.5 || snap.Limit != 10 {
		t.Fatalf("retune not applied: %+v", snap)
	}
	if err := c.Apply(Retune{TargetUtil: 3}); err == nil {
		t.Fatal("invalid retune accepted")
	}
	if got := c.Snapshot().TargetUtil; got != 0.5 {
		t.Errorf("failed retune mutated config: targetUtil %v", got)
	}
}

func TestMetricsPublished(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newController(t, Config{Slots: 2, TargetUtil: 1, Metrics: reg})
	tk, _ := c.Admit(t0, workload.Sha1Hash, 1)
	_, _ = c.Admit(t0, workload.Sha1Hash, 1)
	_, err := c.Admit(t0, workload.Sha1Hash, 1)
	if err == nil {
		t.Fatal("expected shed at 2/2")
	}
	c.Done(tk, t0, 900, true)
	admitted := reg.Counter("sky_admission_admitted_total", "", metrics.L("fn", "sha1_hash"))
	shed := reg.Counter("sky_admission_shed_total", "", metrics.L("fn", "sha1_hash"))
	if admitted.Value() != 2 || shed.Value() != 1 {
		t.Errorf("counters admitted=%d shed=%d, want 2/1", admitted.Value(), shed.Value())
	}
	inflight := reg.Gauge("sky_admission_inflight", "")
	if inflight.Value() != 1 {
		t.Errorf("inflight gauge = %v, want 1", inflight.Value())
	}
}

// TestConcurrentAdmitShed hammers the gate from many goroutines; with -race
// this is the concurrent admits/sheds test the issue calls for. Invariants:
// every admit is ticketed and released, the gate never exceeds its limit,
// and admitted+shed accounts for every attempt.
func TestConcurrentAdmitShed(t *testing.T) {
	c := newController(t, Config{Slots: 16, TargetUtil: 0.75}) // limit 12
	const workers = 8
	const perWorker = 400
	var admitted, shed, routed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			now := t0
			for i := 0; i < perWorker; i++ {
				now = now.Add(time.Millisecond)
				fn := workload.ID(i%3 + 1)
				tk, err := c.Admit(now, fn, 1)
				if err != nil {
					if !errors.Is(err, ErrShed) {
						t.Errorf("non-shed admit error: %v", err)
					}
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				if i%5 == 0 {
					c.RememberRoute(fn, "aws/us-east-1/b", now)
				}
				if _, ok := c.RouteFor(fn, now); ok {
					routed.Add(1)
				}
				c.Done(tk, now.Add(time.Millisecond), float64(50+i%100), i%7 != 0)
			}
		}(w)
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Inflight != 0 {
		t.Errorf("inflight %d after full drain", snap.Inflight)
	}
	var gotAdmitted, gotShed uint64
	for _, fn := range snap.Functions {
		gotAdmitted += fn.Admitted
		gotShed += fn.Shed
	}
	if total := admitted.Load() + shed.Load(); total != workers*perWorker {
		t.Errorf("attempts = %d, want %d", total, workers*perWorker)
	}
	if gotAdmitted != admitted.Load() || gotShed != shed.Load() {
		t.Errorf("controller books admitted=%d shed=%d, callers saw %d/%d",
			gotAdmitted, gotShed, admitted.Load(), shed.Load())
	}
}
