package sampler

import (
	"math"
	"slices"
	"testing"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/faas"
	"skyfaas/internal/geo"
	"skyfaas/internal/saaf"
	"skyfaas/internal/sim"
)

var testEpoch = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

// fastCfg keeps test polls small and quick: 4-wide trees (1+4+16 = 21
// requests), with enough endpoints that test-sized pools saturate before
// endpoint cycling reuses warm instances.
func fastCfg() Config {
	return Config{
		Endpoints:      15,
		PollSize:       84, // 4 roots x 21
		Branch:         4,
		InterPollPause: 500 * time.Millisecond,
	}
}

func world(t *testing.T, azSpec cloudsim.AZSpec) (*sim.Env, *cloudsim.Cloud, *Sampler) {
	t.Helper()
	env := sim.NewEnv(testEpoch)
	catalog := []cloudsim.RegionSpec{{
		Provider: cloudsim.AWS, Name: "r1", Loc: geo.Coord{Lat: 40, Lon: -80},
		AZs: []cloudsim.AZSpec{azSpec},
	}}
	cloud := cloudsim.New(env, 77, catalog, cloudsim.Options{HorizonDays: 2})
	client := faas.NewClient(cloud, "sampler-acct")
	s := New(client, fastCfg())
	if err := s.Deploy(azSpec.Name); err != nil {
		t.Fatal(err)
	}
	return env, cloud, s
}

// recordReports makes s keep a copy of every later poll's reports:
// (*polls)[i] is the i'th poll's, in tree order.
func recordReports(s *Sampler) *[][]saaf.Report {
	polls := new([][]saaf.Report)
	s.OnReports(func(reports []saaf.Report) {
		*polls = append(*polls, slices.Clone(reports))
	})
	return polls
}

func mixedAZ(pool int) cloudsim.AZSpec {
	return cloudsim.AZSpec{
		Name:    "r1-az-a",
		PoolFIs: pool,
		Mix: map[cpu.Kind]float64{
			cpu.Xeon25: 0.5, cpu.Xeon29: 0.2, cpu.Xeon30: 0.25, cpu.EPYC: 0.05,
		},
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Endpoints != 100 || c.PollSize != 1000 || c.Branch != 10 {
		t.Fatalf("defaults = %+v", c)
	}
	if Sleep != 250*time.Millisecond {
		t.Fatalf("sleep = %v, want the paper's 250ms", Sleep)
	}
	if failStop != 0.5 {
		t.Fatalf("failstop = %v, want the paper's 0.5", failStop)
	}
	// Paper geometry: 9 roots x 111-request trees ~ 999 requests/poll.
	if c.treeSize() != 111 || c.roots() != 9 {
		t.Fatalf("tree geometry = %d x %d", c.roots(), c.treeSize())
	}
}

func TestPollObservesUniqueFIs(t *testing.T) {
	env, _, s := world(t, mixedAZ(4096))
	polls := recordReports(s)
	var res PollResult
	env.Go("poller", func(p *sim.Proc) error {
		res = s.Poll(p, "r1-az-a", 0)
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Requested != 84 {
		t.Fatalf("requested = %d", res.Requested)
	}
	if res.Failed != 0 {
		t.Fatalf("failed = %d in an empty zone", res.Failed)
	}
	reports := (*polls)[0]
	if len(reports) != res.Requested || res.Reported != len(reports) {
		t.Fatalf("%d reports (%d counted) for %d requests", len(reports), res.Reported, res.Requested)
	}
	unique := map[int]bool{}
	for _, rep := range reports {
		unique[rep.Instance] = true
		if !rep.Kind.Valid() {
			t.Fatalf("invalid kind in report: %+v", rep)
		}
	}
	if len(unique) != res.Requested {
		t.Errorf("only %d unique FIs out of %d concurrent requests", len(unique), res.Requested)
	}
	if res.NewFIs != len(unique) || res.Fresh.Total() != len(unique) {
		t.Errorf("a standalone poll counts %d new FIs (%d fresh), saw %d", res.NewFIs, res.Fresh.Total(), len(unique))
	}
	if res.CostUSD <= 0 {
		t.Error("poll cost not accounted")
	}
}

func TestRepollSameEndpointReusesWarmFIs(t *testing.T) {
	env, _, s := world(t, mixedAZ(4096))
	polls := recordReports(s)
	env.Go("poller", func(p *sim.Proc) error {
		s.Poll(p, "r1-az-a", 0)
		p.Sleep(2 * time.Second)
		s.Poll(p, "r1-az-a", 0) // same endpoint: warm instances
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	first, second := (*polls)[0], (*polls)[1]
	firstIDs := map[int]bool{}
	for _, rep := range first {
		firstIDs[rep.Instance] = true
	}
	reused := 0
	for _, rep := range second {
		if firstIDs[rep.Instance] {
			reused++
		}
	}
	if reused < len(second)/2 {
		t.Errorf("only %d/%d instances reused on re-poll of the same endpoint", reused, len(second))
	}
}

func TestDistinctEndpointsSeeFreshFIs(t *testing.T) {
	env, _, s := world(t, mixedAZ(4096))
	polls := recordReports(s)
	env.Go("poller", func(p *sim.Proc) error {
		s.Poll(p, "r1-az-a", 0)
		p.Sleep(time.Second)
		s.Poll(p, "r1-az-a", 1) // different endpoint
		return nil
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	first, second := (*polls)[0], (*polls)[1]
	firstIDs := map[int]bool{}
	for _, rep := range first {
		firstIDs[rep.Instance] = true
	}
	for _, rep := range second {
		if firstIDs[rep.Instance] {
			t.Fatalf("endpoint 1 reused endpoint 0's instance %d", rep.Instance)
		}
	}
}

func TestCharacterizeSaturatesZone(t *testing.T) {
	// Pool of 512 FIs; polls of 84 -> saturation after ~6-7 polls while
	// earlier instances are still in keep-alive.
	env, cloud, s := world(t, mixedAZ(512))
	var ch charact.Characterization
	var trail []PollResult
	env.Go("characterize", func(p *sim.Proc) error {
		var err error
		ch, trail, err = s.Characterize(p, "r1-az-a")
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trail) < 5 || len(trail) >= maxPolls {
		t.Fatalf("saturated after %d polls", len(trail))
	}
	last := trail[len(trail)-1]
	if last.FailFrac() <= 0.5 {
		t.Fatalf("final poll failure fraction %.2f, want > 0.5", last.FailFrac())
	}
	// Early polls should have succeeded nearly fully.
	if trail[0].FailFrac() > 0.05 {
		t.Fatalf("first poll already failing: %.2f", trail[0].FailFrac())
	}
	// Unique instances cover most of the pool.
	az, _ := cloud.AZ("r1-az-a")
	if ch.Samples < az.CapacityFIs()*7/10 {
		t.Errorf("observed %d FIs of %d capacity", ch.Samples, az.CapacityFIs())
	}
	// The characterization approximates the zone's true mix.
	if ape := charact.APE(ch.Dist(), az.TrueMix()); ape > 12 {
		t.Errorf("characterization APE vs truth = %.1f%%", ape)
	}
	if ch.CostUSD <= 0 || ch.Polls != len(trail) {
		t.Errorf("metadata: cost=%v polls=%d", ch.CostUSD, ch.Polls)
	}
}

func TestCharacterizeQuickDoesNotSaturate(t *testing.T) {
	env, _, s := world(t, mixedAZ(2048))
	var trail []PollResult
	env.Go("quick", func(p *sim.Proc) error {
		_, tr, err := s.CharacterizeQuick(p, "r1-az-a", 3)
		trail = tr
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trail) != 3 {
		t.Fatalf("quick ran %d polls, want 3", len(trail))
	}
	for i, res := range trail {
		if res.FailFrac() > 0.05 {
			t.Errorf("quick poll %d failing: %.2f", i, res.FailFrac())
		}
	}
}

func TestProgressiveAccuracyImproves(t *testing.T) {
	env, cloud, s := world(t, cloudsim.AZSpec{
		Name:    "r1-az-a",
		PoolFIs: 1024,
		// Coarse hosts: strong clustering, so single polls misestimate.
		HostFIs: 256,
		Mix: map[cpu.Kind]float64{
			cpu.Xeon25: 0.5, cpu.Xeon29: 0.2, cpu.Xeon30: 0.25, cpu.EPYC: 0.05,
		},
	})
	polls := recordReports(s)
	var trail []PollResult
	env.Go("characterize", func(p *sim.Proc) error {
		_, tr, err := s.Characterize(p, "r1-az-a")
		trail = tr
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*polls) != len(trail) {
		t.Fatalf("%d polls reported for a trail of %d", len(*polls), len(trail))
	}
	az, _ := cloud.AZ("r1-az-a")
	truth := az.TrueMix()
	perPoll := make([]charact.Counts, len(trail))
	for i, reports := range *polls {
		c := make(charact.Counts)
		for _, rep := range reports {
			c.Add(rep.Kind)
		}
		perPoll[i] = c
	}
	apes := charact.ProgressiveAPE(perPoll, truth)
	first, last := apes[0], apes[len(apes)-1]
	if last >= first && first > 5 {
		t.Errorf("progressive sampling did not converge: first %.1f%%, last %.1f%%", first, last)
	}
	if last > 10 {
		t.Errorf("final APE %.1f%% too high", last)
	}
}

func TestSweepSleepCoverageAndCost(t *testing.T) {
	env, _, s := world(t, mixedAZ(4096))
	var points []SweepPoint
	env.Go("sweep", func(p *sim.Proc) error {
		var err error
		points, err = s.SweepSleep(p, "r1-az-a",
			[]time.Duration{10 * time.Millisecond, 250 * time.Millisecond, time.Second},
			[]int{2048})
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// Longer sleeps cost more and cover at least as many unique FIs.
	if points[2].CostUSD <= points[0].CostUSD {
		t.Errorf("1s sleep cost %.6f not above 10ms cost %.6f", points[2].CostUSD, points[0].CostUSD)
	}
	if points[0].UniqueFIs > points[1].UniqueFIs {
		t.Errorf("10ms sleep covered %d FIs, 250ms only %d", points[0].UniqueFIs, points[1].UniqueFIs)
	}
	// 250ms reaches (nearly) full coverage at this scale.
	if points[1].UniqueFIs < 80 {
		t.Errorf("250ms coverage = %d FIs, want ~84", points[1].UniqueFIs)
	}
}

func TestCharacterizationMatchesPaperCostScale(t *testing.T) {
	// With paper-scale polls (999 requests, 0.25s at ~2GB), a poll costs
	// under two cents (Fig. 3) and full saturation of a small zone stays
	// in the tens of cents (§4.3).
	env := sim.NewEnv(testEpoch)
	catalog := []cloudsim.RegionSpec{{
		Provider: cloudsim.AWS, Name: "r1", Loc: geo.Coord{},
		AZs: []cloudsim.AZSpec{{
			Name: "r1-az-a", PoolFIs: 5000,
			Mix: map[cpu.Kind]float64{cpu.Xeon25: 0.7, cpu.Xeon30: 0.3},
		}},
	}}
	cloud := cloudsim.New(env, 3, catalog, cloudsim.Options{HorizonDays: 2})
	client := faas.NewClient(cloud, "acct")
	s := New(client, Config{}) // paper defaults
	if err := s.Deploy("r1-az-a"); err != nil {
		t.Fatal(err)
	}
	var ch charact.Characterization
	var trail []PollResult
	env.Go("characterize", func(p *sim.Proc) error {
		var err error
		ch, trail, err = s.Characterize(p, "r1-az-a")
		return err
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if trail[0].CostUSD >= 0.02 {
		t.Errorf("single poll cost $%.4f, want < $0.02", trail[0].CostUSD)
	}
	if ch.CostUSD >= 0.5 {
		t.Errorf("saturation cost $%.4f, want well under $0.50", ch.CostUSD)
	}
	// ~5000-FI zone saturates in a handful of polls, like eu-north-1a.
	if len(trail) < 4 || len(trail) > 12 {
		t.Errorf("saturated after %d polls", len(trail))
	}
	if math.Abs(float64(ch.Samples)-5000) > 1500 {
		t.Errorf("observed %d FIs in a ~5000-FI zone", ch.Samples)
	}
}
