package experiments

import (
	"fmt"
	"time"

	"skyfaas/internal/faas"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
)

// EX1Config parameterizes EX-1 (infrastructure observation verification:
// Figs. 3 and 4).
type EX1Config struct {
	Seed uint64
	// AZ is the zone driven to saturation (paper: us-west-1a).
	AZ string
	// Sleeps and MemoriesMB are the Fig.-3 sweep axes.
	Sleeps     []time.Duration
	MemoriesMB []int
	// Sampler overrides the polling configuration (zero = paper scale).
	Sampler sampler.Config
}

func (c EX1Config) withDefaults() EX1Config {
	if c.AZ == "" {
		c.AZ = "us-west-1a"
	}
	if len(c.Sleeps) == 0 {
		c.Sleeps = []time.Duration{
			50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
			500 * time.Millisecond, time.Second, 2 * time.Second,
		}
	}
	if len(c.MemoriesMB) == 0 {
		c.MemoriesMB = []int{2048, 4096}
	}
	return c
}

// Reduced returns a benchmark-scale EX-1: saturates the small eu-north-1a
// pool with small polls (an AZ can only saturate if its endpoints can
// collectively pin more instances than the zone provisions).
func (c EX1Config) Reduced() EX1Config {
	c = c.withDefaults()
	c.AZ = "eu-north-1a"
	c.Sleeps = []time.Duration{50 * time.Millisecond, 250 * time.Millisecond, time.Second}
	c.MemoriesMB = []int{2048}
	c.Sampler = reducedSampler
	return c
}

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
func RunEX1(cfg EX1Config) (EX1Result, error) {
	cfg = cfg.withDefaults()
	rt, err := newRuntime(cfg.Seed, 3, cfg.Sampler)
	if err != nil {
		return EX1Result{}, err
	}
	res := EX1Result{AZ: cfg.AZ}

	// The second account is fully independent: its own client and its own
	// sampling endpoints in the same zone.
	second := sampler.New(faas.NewClient(rt.Cloud(), "account-b"), samplerCfgSecond(rt.Sampler().Config()))

	err = rt.Do(func(p *sim.Proc) error {
		if err := rt.EnsureSamplerEndpoints(cfg.AZ); err != nil {
			return err
		}
		if err := second.Deploy(cfg.AZ); err != nil {
			return err
		}
		// Fig. 3: tune the sleep interval per memory setting.
		sweep, err := rt.Sampler().SweepSleep(p, cfg.AZ, cfg.Sleeps, cfg.MemoriesMB)
		if err != nil {
			return err
		}
		res.Sweep = sweep
		// Let sweep instances expire before the saturation run.
		p.Sleep(rt.Cloud().Options().KeepAlive + time.Minute)

		// Fig. 4: poll to saturation on account A...
		ch, trail, err := rt.Sampler().Characterize(p, cfg.AZ)
		if err != nil {
			return err
		}
		res.FirstAccount = trail
		res.SaturationCostUSD = ch.CostUSD
		res.ObservedFIs = ch.Samples
		// ...then immediately poll from the independent account B.
		for i := 0; i < secondAccountPolls; i++ {
			res.SecondAccount = append(res.SecondAccount, second.Poll(p, cfg.AZ, i))
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
		t3.Row(i+1, len(pr.Reports), pr.Failed, tablefmt.Pct(pr.FailFrac()))
	}
	out += "\nEX-1 / Fig. 4 — independent account B immediately after saturation\n" + t3.String()
	return out
}
