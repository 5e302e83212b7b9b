package experiments

import (
	"fmt"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/faas"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
)

// EX1Config parameterizes EX-1 (infrastructure observation verification:
// Figs. 3 and 4).
type EX1Config struct {
	Seed    uint64
	reduced bool
}

// Reduced returns c at benchmark scale.
func (c EX1Config) Reduced() EX1Config { c.reduced = true; return c }

// ex1Preset is one scale of EX-1.
type ex1Preset struct {
	// az is the zone driven to saturation.
	az string
	// sleeps and memoriesMB are the Fig.-3 sweep axes.
	sleeps     []time.Duration
	memoriesMB []int
	sampler    sampler.Config
}

var (
	// ex1Full is the paper's procedure on us-west-1a.
	ex1Full = ex1Preset{
		az: "us-west-1a",
		sleeps: []time.Duration{
			50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
			500 * time.Millisecond, time.Second, 2 * time.Second,
		},
		memoriesMB: []int{2048, 4096},
	}
	// ex1Reduced saturates the small eu-north-1a pool with small polls (an
	// AZ can only saturate if its endpoints can collectively pin more
	// instances than the zone provisions).
	ex1Reduced = ex1Preset{
		az:         "eu-north-1a",
		sleeps:     []time.Duration{50 * time.Millisecond, 250 * time.Millisecond, time.Second},
		memoriesMB: []int{2048},
		sampler:    reducedSampler,
	}
)

// secondAccountPolls is how many polls the independent second account
// issues after the first account saturates the zone.
const secondAccountPolls = 3

// EX1Result carries Fig.-3 and Fig.-4 data.
type EX1Result struct {
	AZ string
	// Sweep is the sleep-interval / memory cost-coverage sweep (Fig. 3).
	Sweep []sampler.SweepPoint
	// FirstAccount is the per-poll trail of the saturating run (Fig. 4:
	// observed new FIs and failed requests per sequential poll).
	FirstAccount []sampler.PollResult
	// SecondAccount is the independent account's trail issued immediately
	// after saturation (Fig. 4's two-account validation).
	SecondAccount []sampler.PollResult
	// SaturationCostUSD is the first account's total spend to saturation.
	SaturationCostUSD float64
	// ObservedFIs is the number of unique instances the first account saw.
	ObservedFIs int
}

// RunEX1 executes EX-1.
func RunEX1(c EX1Config) (EX1Result, error) {
	cfg := scaled(c.reduced, ex1Full, ex1Reduced)
	res := EX1Result{AZ: cfg.az}
	world := core.Config{Seed: c.Seed, SamplerCfg: cfg.sampler, CloudOpts: cloudsim.Options{HorizonDays: 3}}
	err := inWorld(world, func(rt *core.Runtime, p *sim.Proc) error {
		// The second account is fully independent: its own client and its
		// own sampling endpoints in the same zone.
		second := sampler.New(faas.NewClient(rt.Cloud(), "account-b"), samplerCfgSecond(rt.Sampler().Config()))
		if err := rt.EnsureSamplerEndpoints(cfg.az); err != nil {
			return err
		}
		if err := second.Deploy(cfg.az); err != nil {
			return err
		}
		// Fig. 3: tune the sleep interval per memory setting.
		sweep, err := rt.Sampler().SweepSleep(p, cfg.az, cfg.sleeps, cfg.memoriesMB)
		if err != nil {
			return err
		}
		res.Sweep = sweep
		// Let sweep instances expire before the saturation run.
		p.Sleep(rt.Cloud().Options().KeepAlive + time.Minute)

		// Fig. 4: poll to saturation on account A...
		ch, trail, err := rt.Sampler().Characterize(p, cfg.az)
		if err != nil {
			return err
		}
		res.FirstAccount = trail
		res.SaturationCostUSD = ch.CostUSD
		res.ObservedFIs = ch.Samples
		// ...then immediately poll from the independent account B.
		for i := 0; i < secondAccountPolls; i++ {
			res.SecondAccount = append(res.SecondAccount, second.Poll(p, cfg.az, i))
		}
		return nil
	})
	if err != nil {
		return EX1Result{}, err
	}
	return res, nil
}

// samplerCfgSecond gives the second account its own endpoint namespace.
func samplerCfgSecond(base sampler.Config) sampler.Config {
	base.Prefix = "skysample-b"
	return base
}

// Render produces the paper-style text report.
func (r EX1Result) Render() string {
	t := tablefmt.New("sleep", "memoryMB", "uniqueFIs", "cost")
	for _, pt := range r.Sweep {
		t.Row(pt.Sleep.String(), pt.MemoryMB, pt.UniqueFIs, tablefmt.USD(pt.CostUSD))
	}
	out := "EX-1 / Fig. 3 — sampling cost vs unique FIs by sleep interval\n" + t.String()

	t2 := tablefmt.New("poll", "newFIs", "failed", "failFrac")
	for i, pr := range r.FirstAccount {
		t2.Row(i+1, pr.NewFIs, pr.Failed, tablefmt.Pct(pr.FailFrac()))
	}
	out += fmt.Sprintf("\nEX-1 / Fig. 4 — saturation of %s (account A, %d unique FIs, %s)\n",
		r.AZ, r.ObservedFIs, tablefmt.USD(r.SaturationCostUSD)) + t2.String()

	t3 := tablefmt.New("poll", "newFIs", "failed", "failFrac")
	for i, pr := range r.SecondAccount {
		t3.Row(i+1, pr.Reported, pr.Failed, tablefmt.Pct(pr.FailFrac()))
	}
	out += "\nEX-1 / Fig. 4 — independent account B immediately after saturation\n" + t3.String()
	return out
}
