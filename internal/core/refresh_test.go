package core

import (
	"testing"
	"time"

	"skyfaas/internal/refresh"
	"skyfaas/internal/router"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// TestEnableRefreshWiresTrafficAndResampling checks the maintenance loop's
// runtime integration: routed bursts feed the urgency model through the
// router's traffic sink, and a forced refresh re-samples through the real
// sampler into the store the router reads.
func TestEnableRefreshWiresTrafficAndResampling(t *testing.T) {
	rt := tinyRuntime(t)
	rt.EnablePassiveCharacterization(24 * time.Hour)
	m, err := rt.EnableRefresh(refresh.Config{
		Zones: []string{"t1-slow", "t1-fast"},
		Mode:  refresh.ModeOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Refresher() != m {
		t.Fatal("Refresher() must return the enabled maintainer")
	}
	err = rt.Do(func(p *sim.Proc) error {
		if _, err := rt.ProfileWorkloads(p, []workload.ID{workload.MathService}, []string{"t1-slow", "t1-fast"}, 200); err != nil {
			return err
		}
		res, err := rt.Run(p, router.BurstSpec{
			Strategy:   router.Baseline{AZ: "t1-fast"},
			Workload:   workload.MathService,
			N:          100,
			Candidates: []string{"t1-fast"},
		})
		if err != nil {
			return err
		}
		st := m.Snapshot()
		var share float64
		for _, z := range st.Zones {
			if z.AZ == res.AZ {
				share = z.TrafficShare
			}
		}
		if share != 1.0 {
			t.Errorf("traffic share for %s = %v, want 1.0 (only burst routed there)", res.AZ, share)
		}

		// A forced refresh pays real sampling spend and lands in the store.
		ch, err := m.Force(p, "t1-slow", 2)
		if err != nil {
			return err
		}
		if ch.CostUSD <= 0 || ch.Polls != 2 {
			t.Errorf("forced characterization = %+v, want 2 paid polls", ch)
		}
		got, ok := rt.Store().Get("t1-slow", rt.Env().Now())
		if !ok || !got.Taken.Equal(ch.Taken) {
			t.Errorf("store not updated by forced refresh: %+v ok=%v", got, ok)
		}
		if st := m.Snapshot(); st.SpentUSD <= 0 {
			t.Errorf("snapshot spend = %v, want > 0", st.SpentUSD)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
