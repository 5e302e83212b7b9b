package experiments

import (
	"fmt"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/stats"
	"skyfaas/internal/tablefmt"
)

// EX4Config parameterizes EX-4 (temporal infrastructure variation,
// Figs. 6-8): five zones sampled every 22 hours for two weeks, plus
// hourly sampling of us-west-1b for 24 hours.
type EX4Config struct {
	Seed uint64
	// AZs are the tracked zones (default: the paper's five).
	AZs []string
	// Rounds is the number of daily observations (default 14).
	Rounds int
	// HourlyRounds is the number of hourly observations (default 24).
	HourlyRounds int
	// Sampler overrides the polling configuration.
	Sampler sampler.Config
}

const (
	// ex4CadenceHours separates daily observations: 22 hours shifts the
	// poll time across the day, as in the paper.
	ex4CadenceHours = 22
	// ex4HourlyAZ gets the 24-hour high-frequency run.
	ex4HourlyAZ = "us-west-1b"
	// ex4HourlyPolls is the sampling depth of each hourly observation:
	// deep enough that two independent estimates of an unchanged pool
	// agree within a few percent.
	ex4HourlyPolls = 12
)

func (c EX4Config) withDefaults() EX4Config {
	if len(c.AZs) == 0 {
		c.AZs = EX4Zones()
	}
	if c.Rounds == 0 {
		c.Rounds = 14
	}
	if c.HourlyRounds == 0 {
		c.HourlyRounds = 24
	}
	return c
}

// Reduced returns a benchmark-scale EX-4.
func (c EX4Config) Reduced() EX4Config {
	c = c.withDefaults()
	c.AZs = []string{"us-west-1a", "sa-east-1a"}
	c.Rounds = 5
	c.HourlyRounds = 6
	c.Sampler = reducedSampler
	return c
}

// EX4Round is one zone's observation on one round.
type EX4Round struct {
	Round int
	Taken time.Time
	Dist  charact.Dist
	// PollsTo95/85/90/99 are the prefix lengths reaching each accuracy
	// against the round's own at-failure truth (-1 = not reached).
	PollsTo85, PollsTo90, PollsTo95, PollsTo99 int
	// FIsTo95 is the unique instances needed for 95% accuracy (Fig. 6).
	FIsTo95 int
	// APEVsDay1 scores this round's distribution against round 1 (Fig. 7).
	APEVsDay1 float64
	CostUSD   float64
}

// EX4Result is the Figs. 6-8 dataset.
type EX4Result struct {
	// ByZone maps zone name to its round series.
	ByZone map[string][]EX4Round
	Zones  []string
	// MeanPollsTo85/90/95/99 aggregate across zones and rounds.
	MeanPollsTo85, MeanPollsTo90, MeanPollsTo95, MeanPollsTo99 float64
	// Hourly is the 24-hour us-west-1b series: APE of each hour's
	// distribution against hour 1 (Fig. 8).
	HourlyAZ       string
	HourlyAPE      []float64
	HourlyWithin10 int // hours within 10% of the baseline
	TotalCost      float64
}

// RunEX4 executes EX-4.
func RunEX4(cfg EX4Config) (EX4Result, error) {
	cfg = cfg.withDefaults()
	horizon := cfg.Rounds*ex4CadenceHours/24 + 3
	rt, err := newRuntime(cfg.Seed, horizon, cfg.Sampler)
	if err != nil {
		return EX4Result{}, err
	}
	res := EX4Result{
		ByZone:   make(map[string][]EX4Round, len(cfg.AZs)),
		Zones:    cfg.AZs,
		HourlyAZ: ex4HourlyAZ,
	}
	err = rt.Do(func(p *sim.Proc) error {
		for _, az := range cfg.AZs {
			if err := rt.EnsureSamplerEndpoints(az); err != nil {
				return err
			}
		}
		for round := 0; round < cfg.Rounds; round++ {
			for _, az := range cfg.AZs {
				ch, trail, err := rt.Sampler().Characterize(p, az)
				if err != nil {
					return fmt.Errorf("round %d %s: %w", round, az, err)
				}
				res.TotalCost += ch.CostUSD
				res.ByZone[az] = append(res.ByZone[az], analyzeRound(round, ch, trail))
			}
			if round < cfg.Rounds-1 {
				p.Sleep(ex4CadenceHours * time.Hour)
			}
		}
		// Fill APEVsDay1 from each zone's first round.
		for _, az := range cfg.AZs {
			rounds := res.ByZone[az]
			if len(rounds) == 0 {
				continue
			}
			base := rounds[0].Dist
			for i := range rounds {
				rounds[i].APEVsDay1 = charact.APE(rounds[i].Dist, base)
			}
		}

		// Fig. 8: hourly sampling of one volatile zone. The 24-hour window
		// is aligned to start just after a daily reprovisioning boundary so
		// it measures intra-day behaviour, not the day-boundary jump.
		if err := rt.EnsureSamplerEndpoints(ex4HourlyAZ); err != nil {
			return err
		}
		day := 24 * time.Hour
		sinceBoundary := rt.Env().Elapsed() % day
		p.Sleep(day - sinceBoundary + 5*time.Minute)
		var dists []charact.Dist
		for h := 0; h < cfg.HourlyRounds; h++ {
			ch, _, err := rt.Sampler().CharacterizeQuick(p, ex4HourlyAZ, ex4HourlyPolls)
			if err != nil {
				return fmt.Errorf("hourly %d: %w", h, err)
			}
			res.TotalCost += ch.CostUSD
			dists = append(dists, ch.Dist())
			if h < cfg.HourlyRounds-1 {
				p.Sleep(time.Hour)
			}
		}
		if len(dists) > 0 {
			res.HourlyAPE = charact.StabilitySeries(dists[0], dists)
			for _, v := range res.HourlyAPE {
				if v <= 10 {
					res.HourlyWithin10++
				}
			}
		}
		return nil
	})
	if err != nil {
		return EX4Result{}, err
	}

	collect := func(pick func(EX4Round) int) float64 {
		var xs []float64
		for _, az := range res.Zones { // stable order for reproducible sums
			for _, r := range res.ByZone[az] {
				if v := pick(r); v > 0 {
					xs = append(xs, float64(v))
				}
			}
		}
		return stats.Mean(xs)
	}
	res.MeanPollsTo85 = collect(func(r EX4Round) int { return r.PollsTo85 })
	res.MeanPollsTo90 = collect(func(r EX4Round) int { return r.PollsTo90 })
	res.MeanPollsTo95 = collect(func(r EX4Round) int { return r.PollsTo95 })
	res.MeanPollsTo99 = collect(func(r EX4Round) int { return r.PollsTo99 })
	return res, nil
}

func analyzeRound(round int, ch charact.Characterization, trail []sampler.PollResult) EX4Round {
	truth := ch.Dist()
	perPoll := perPollUniqueCounts(trail)
	apes := charact.ProgressiveAPE(perPoll, truth)
	r := EX4Round{
		Round:     round,
		Taken:     ch.Taken,
		Dist:      truth,
		PollsTo85: charact.PollsToAccuracy(apes, 85),
		PollsTo90: charact.PollsToAccuracy(apes, 90),
		PollsTo95: charact.PollsToAccuracy(apes, 95),
		PollsTo99: charact.PollsToAccuracy(apes, 99),
		CostUSD:   ch.CostUSD,
	}
	if r.PollsTo95 > 0 {
		cum := 0
		for i := 0; i < r.PollsTo95 && i < len(trail); i++ {
			cum += trail[i].NewFIs
		}
		r.FIsTo95 = cum
	}
	return r
}

// Render produces the Figs. 6-8 style report.
func (r EX4Result) Render() string {
	out := "EX-4 / Fig. 6 — sampling needed for accurate characterization\n"
	t := tablefmt.New("zone", "round", "pollsTo95", "FIsTo95", "APE vs day1")
	for _, az := range r.Zones {
		for _, round := range r.ByZone[az] {
			t.Row(az, round.Round+1, round.PollsTo95, round.FIsTo95,
				fmt.Sprintf("%.1f%%", round.APEVsDay1))
		}
	}
	out += t.String()
	out += fmt.Sprintf("\nmean polls for 85/90/95/99%% accuracy: %.2f / %.2f / %.2f / %.2f\n",
		r.MeanPollsTo85, r.MeanPollsTo90, r.MeanPollsTo95, r.MeanPollsTo99)

	if len(r.HourlyAPE) > 0 {
		labels := make([]string, len(r.HourlyAPE))
		for i := range labels {
			labels[i] = fmt.Sprintf("hour %02d", i)
		}
		out += "\nEX-4 / Fig. 8 — hourly variation of " + r.HourlyAZ + " (APE vs hour 0)\n"
		out += tablefmt.Series("APE%", labels, r.HourlyAPE)
		out += fmt.Sprintf("hours within 10%% of baseline: %d/%d\n", r.HourlyWithin10, len(r.HourlyAPE))
	}
	out += fmt.Sprintf("\ntotal sampling cost: %s\n", tablefmt.USD(r.TotalCost))
	return out
}
