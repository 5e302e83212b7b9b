package cloudsim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/metrics"
	"skyfaas/internal/sim"
)

func metricsWorld(t *testing.T, reg *metrics.Registry, poolFIs int) (*sim.Env, *Cloud) {
	t.Helper()
	env := sim.NewEnv(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC))
	catalog := []RegionSpec{{
		Provider: AWS, Name: "m1", Loc: geo.Coord{Lat: 40, Lon: -80},
		AZs: []AZSpec{{
			Name: "m1-a", PoolFIs: poolFIs, HostFIs: 4,
			Mix: map[cpu.Kind]float64{cpu.Xeon25: 1},
		}},
	}}
	cloud := New(env, 11, catalog, Options{Metrics: reg, HorizonDays: 1})
	return env, cloud
}

func counterValue(t *testing.T, reg *metrics.Registry, name string, labels ...metrics.Label) float64 {
	t.Helper()
	snap := reg.Snapshot()
	for _, fam := range snap.Metrics {
		if fam.Name != name {
			continue
		}
	series:
		for _, s := range fam.Series {
			for _, want := range labels {
				found := false
				for _, l := range s.Labels {
					if l == want {
						found = true
						break
					}
				}
				if !found {
					continue series
				}
			}
			return s.Value
		}
	}
	return -1
}

func TestCloudCountsInvocationsAndColdStarts(t *testing.T) {
	reg := metrics.NewRegistry()
	env, cloud := metricsWorld(t, reg, 64)
	if _, err := cloud.Deploy("m1-a", "fn", DeployConfig{
		MemoryMB: 2048, Behavior: SleepBehavior{D: 50 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	env.Go("client", func(p *sim.Proc) error {
		// First call cold, second reuses the warm instance.
		for i := 0; i < 2; i++ {
			if resp := invoke(p, cloud, Request{Account: "a", AZ: "m1-a", Function: "fn"}); !resp.OK() {
				t.Errorf("invoke %d: %v", i, resp.Err)
			}
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	az := metrics.L("az", "m1-a")
	if got := counterValue(t, reg, "sky_cloudsim_invocations_total", az); got != 2 {
		t.Fatalf("invocations = %v, want 2", got)
	}
	if got := counterValue(t, reg, "sky_cloudsim_cold_starts_total", az); got != 1 {
		t.Fatalf("cold starts = %v, want 1", got)
	}
	// Both completions landed in the billed-duration histogram.
	var hist *metrics.HistSnapshot
	for _, fam := range reg.Snapshot().Metrics {
		if fam.Name == "sky_cloudsim_billed_ms" {
			hist = fam.Series[0].Histogram
		}
	}
	if hist == nil || hist.Count != 2 {
		t.Fatalf("billed histogram = %+v", hist)
	}
}

func TestCloudCountsSaturation(t *testing.T) {
	reg := metrics.NewRegistry()
	env, cloud := metricsWorld(t, reg, 4) // one host, four slots
	if _, err := cloud.Deploy("m1-a", "fn", DeployConfig{
		MemoryMB: 2048, Behavior: SleepBehavior{D: time.Second},
	}); err != nil {
		t.Fatal(err)
	}
	var failures int
	env.Go("client", func(p *sim.Proc) error {
		evs := make([]*sim.Event, 6)
		for i := range evs {
			ev := sim.NewEvent(env)
			evs[i] = ev
			cloud.StartInvoke(Request{Account: "a", AZ: "m1-a", Function: "fn"},
				func(r Response) { ev.Trigger(r) })
		}
		for _, ev := range evs {
			if resp, ok := p.Wait(ev).(Response); ok && !resp.OK() {
				failures++
			}
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if failures != 2 {
		t.Fatalf("failures = %d, want 2 (6 concurrent calls on 4 slots)", failures)
	}
	az := metrics.L("az", "m1-a")
	if got := counterValue(t, reg, "sky_cloudsim_saturation_events_total", az); got != 2 {
		t.Fatalf("saturation events = %v, want 2", got)
	}
	if got := counterValue(t, reg, "sky_cloudsim_failures_total", az, metrics.L("reason", "saturated")); got != 2 {
		t.Fatalf("saturated failures = %v, want 2", got)
	}
	// All instances idle now; after keep-alive expiry the live-FI gauge
	// returns to zero.
	if err := env.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, reg, "sky_cloudsim_live_fis", az); got != 0 {
		t.Fatalf("live FIs after keep-alive = %v, want 0", got)
	}
}

func TestCloudWithoutRegistryIsSilent(t *testing.T) {
	env, cloud := metricsWorld(t, nil, 64)
	if _, err := cloud.Deploy("m1-a", "fn", DeployConfig{
		MemoryMB: 2048, Behavior: SleepBehavior{D: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	env.Go("client", func(p *sim.Proc) error {
		if resp := invoke(p, cloud, Request{Account: "a", AZ: "m1-a", Function: "fn"}); !resp.OK() {
			t.Errorf("invoke: %v", resp.Err)
		}
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFreshWorldExposesEveryZone: a zone's series are registered when the
// world is built, not when its hosts are drawn, so the first scrape of a
// default world that has served nothing lists all of them for every zone,
// at zero, while only the hourly-drift zone holds hosts.
func TestFreshWorldExposesEveryZone(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(sim.NewEnv(testEpoch), 1, nil, Options{Metrics: reg, HorizonDays: 1})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	lines := make(map[string]bool)
	for _, line := range strings.Split(buf.String(), "\n") {
		lines[line] = true
	}
	zones, built := 0, 0
	for _, r := range c.Regions() {
		for _, az := range r.AZs() {
			zones++
			l := `{az="` + az.Name() + `"`
			want := []string{
				"sky_cloudsim_invocations_total" + l + "} 0",
				"sky_cloudsim_cold_starts_total" + l + "} 0",
				"sky_cloudsim_saturation_events_total" + l + "} 0",
				"sky_cloudsim_prewarms_total" + l + "} 0",
				"sky_cloudsim_live_fis" + l + "} 0",
				"sky_cloudsim_chaos_rejections_total" + l + `,fault="outage"} 0`,
				"sky_cloudsim_chaos_rejections_total" + l + `,fault="throttle_storm"} 0`,
				"sky_cloudsim_billed_ms_count" + l + "} 0",
				"sky_coldstart_ms_count" + l + "} 0",
			}
			for _, reason := range []string{"throttled", "saturated", "bad_request", "handler"} {
				want = append(want, "sky_cloudsim_failures_total"+l+`,reason="`+reason+`"} 0`)
			}
			for _, line := range want {
				if !lines[line] {
					t.Errorf("fresh world's exposition lacks %s", line)
				}
			}
			// Only a zone with hourly drift (us-west-1b) is built with its
			// world: its excursions schedule restores whose place in the
			// queue depends on when they fire.
			if az.built != (az.spec.HourlyDrift > 0) {
				t.Errorf("%s: built = %v at construction, hourly drift %v", az.Name(), az.built, az.spec.HourlyDrift)
			}
			if az.built {
				built++
			}
		}
	}
	if zones != 49 || built != 1 {
		t.Errorf("default world has %d zones, %d with hosts; want 49 and 1", zones, built)
	}
}
