package warmpool

import (
	"fmt"
	"testing"
	"time"

	"skyfaas/internal/sim"
)

// syncActuator resolves actuations inline with zero cost variance: the
// test measures the control loop (forecast, sizing, dispatch), not a
// simulated cloud round trip.
type syncActuator struct {
	live map[string]int
}

func (a *syncActuator) EnsureWarm(az string, target, floor int, done func(Provision)) {
	r := Provision{}
	if deficit := target - a.live[az]; deficit > 0 {
		r.Requested, r.Provisioned = deficit, deficit
		r.CostUSD = float64(deficit) * 0.0001
		a.live[az] += deficit
	}
	r.Live, r.Idle = a.live[az], a.live[az]
	done(r)
}

// TestTickAllocs pins the allocation budget of one steady-state control-loop
// pass over 32 zones with primed forecasters, the per-tick cost skyd pays
// every TickEvery of virtual time: one dispatch closure per actuated zone
// and nothing per arrival, so the count scales with zones, not with traffic.
func TestTickAllocs(t *testing.T) {
	env := sim.NewEnv(epoch)
	act := &syncActuator{live: make(map[string]int)}
	zones := make([]string, 32)
	for i := range zones {
		zones[i] = fmt.Sprintf("az-%02d", i)
	}
	m, err := New(env, Config{
		Zones:     zones,
		Mode:      ModePredictive,
		TickEvery: 30 * time.Second,
		Window:    time.Minute,
		Season:    20 * time.Minute,
	}, act, constSvc(150), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Prime two full seasons of diurnal-ish traffic so the seasonal terms
	// are populated and every zone carries a non-trivial target.
	for w := 0; w < 40; w++ {
		w := w
		env.Schedule(time.Duration(w)*time.Minute, func() {
			for i, az := range zones {
				m.ObserveTraffic(az, 40+30*((w+i)%10))
			}
		})
	}
	if err := env.RunFor(40 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// tickAfter is one tick preceded by the given number of arrivals in
	// every zone, each its own ObserveTraffic call as the router makes them.
	tickAfter := func(arrivals int) float64 {
		return testing.AllocsPerRun(200, func() {
			for _, az := range zones {
				for i := 0; i < arrivals; i++ {
					m.ObserveTraffic(az, 1)
				}
			}
			m.tick()
		})
	}
	const budget = 32 // one closure per zone
	quiet := tickAfter(10)
	if quiet > budget {
		t.Errorf("tick over %d zones allocates %.0f times, budget is %d", len(zones), quiet, budget)
	}
	if busy := tickAfter(100); busy != quiet {
		t.Errorf("tick allocates %.0f times after 10x the traffic, %.0f before: an allocation per arrival leaked into the control loop", busy, quiet)
	}
}
