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

// EX3Config parameterizes EX-3 (progressive sampling evaluation, Fig. 5):
// poll eleven zones to saturation and score each cumulative poll prefix
// against the at-failure ground truth.
type EX3Config struct {
	Seed uint64
	// AZs are the evaluated zones (default: the paper's eleven).
	AZs []string
	// Sampler overrides the polling configuration.
	Sampler sampler.Config
}

func (c EX3Config) withDefaults() EX3Config {
	if len(c.AZs) == 0 {
		c.AZs = EX3Zones()
	}
	return c
}

// Reduced returns a benchmark-scale EX-3 (four zones, small polls).
func (c EX3Config) Reduced() EX3Config {
	c.AZs = []string{"eu-north-1a", "us-east-2a", "us-east-2b", "us-west-1a"}
	c.Sampler = reducedSampler
	return c
}

// EX3Zone is one zone's progressive-sampling curve.
type EX3Zone struct {
	AZ string
	// APEByPoll is the error of each cumulative poll prefix against the
	// at-failure characterization.
	APEByPoll []float64
	// FIsByPoll is the cumulative unique-instance count per poll.
	FIsByPoll []int
	// PollsToSaturation is the total polls until the stop rule fired.
	PollsToSaturation int
	// CallsToFailure is the total requests issued until saturation.
	CallsToFailure int
	// SinglePollAPE is APEByPoll[0].
	SinglePollAPE float64
	// PollsTo95 is the first prefix reaching 95% accuracy (-1 if never).
	PollsTo95 int
	CostUSD   float64
}

// EX3Result is the Fig.-5 dataset.
type EX3Result struct {
	Zones []EX3Zone
	// MeanPollsTo95 averages PollsTo95 over zones that reached it.
	MeanPollsTo95 float64
	// MaxSinglePollAPE is the worst single-poll error across zones.
	MaxSinglePollAPE float64
}

// RunEX3 executes EX-3.
func RunEX3(cfg EX3Config) (EX3Result, error) {
	cfg = cfg.withDefaults()
	rt, err := newRuntime(cfg.Seed, 3, cfg.Sampler)
	if err != nil {
		return EX3Result{}, err
	}
	var res EX3Result
	err = rt.Do(func(p *sim.Proc) error {
		for _, az := range cfg.AZs {
			if err := rt.EnsureSamplerEndpoints(az); err != nil {
				return err
			}
			ch, trail, err := rt.Sampler().Characterize(p, az)
			if err != nil {
				return fmt.Errorf("characterize %s: %w", az, err)
			}
			zone := analyzeProgressive(az, ch, trail)
			res.Zones = append(res.Zones, zone)
			// Let the zone recover before the next one (shared world).
			p.Sleep(rt.Cloud().Options().KeepAlive + time.Minute)
		}
		return nil
	})
	if err != nil {
		return EX3Result{}, err
	}
	var to95 []float64
	for _, z := range res.Zones {
		if z.SinglePollAPE > res.MaxSinglePollAPE {
			res.MaxSinglePollAPE = z.SinglePollAPE
		}
		if z.PollsTo95 > 0 {
			to95 = append(to95, float64(z.PollsTo95))
		}
	}
	res.MeanPollsTo95 = stats.Mean(to95)
	return res, nil
}

// analyzeProgressive scores a saturation trail against its own at-failure
// ground truth (the paper's reference for EX-3). Observations are
// deduplicated by instance id across polls, exactly as Characterize counts
// them.
func analyzeProgressive(az string, ch charact.Characterization, trail []sampler.PollResult) EX3Zone {
	truth := ch.Dist()
	perPoll := perPollUniqueCounts(trail)
	fisByPoll := make([]int, len(trail))
	cum := 0
	calls := 0
	for i, pr := range trail {
		cum += perPoll[i].Total()
		fisByPoll[i] = cum
		calls += pr.Requested
	}
	apes := charact.ProgressiveAPE(perPoll, truth)
	zone := EX3Zone{
		AZ:                az,
		APEByPoll:         apes,
		FIsByPoll:         fisByPoll,
		PollsToSaturation: len(trail),
		CallsToFailure:    calls,
		PollsTo95:         charact.PollsToAccuracy(apes, 95),
		CostUSD:           ch.CostUSD,
	}
	if len(apes) > 0 {
		zone.SinglePollAPE = apes[0]
	}
	return zone
}

// perPollUniqueCounts rebuilds per-poll CPU counts over first-sighting
// instances only.
func perPollUniqueCounts(trail []sampler.PollResult) []charact.Counts {
	seen := make(map[string]struct{})
	out := make([]charact.Counts, len(trail))
	for i, pr := range trail {
		counts := make(charact.Counts)
		for _, rep := range pr.Reports {
			if _, dup := seen[rep.UUID]; dup {
				continue
			}
			seen[rep.UUID] = struct{}{}
			counts.Add(rep.Kind)
		}
		out[i] = counts
	}
	return out
}

// Render produces the Fig.-5 style report.
func (r EX3Result) Render() string {
	t := tablefmt.New("zone", "polls", "callsToFailure", "1-poll APE", "pollsTo95", "cost")
	for _, z := range r.Zones {
		t.Row(z.AZ, z.PollsToSaturation, z.CallsToFailure,
			fmt.Sprintf("%.1f%%", z.SinglePollAPE), z.PollsTo95, tablefmt.USD(z.CostUSD))
	}
	out := "EX-3 / Fig. 5 — progressive sampling accuracy vs cost\n" + t.String()
	out += fmt.Sprintf("\nmean polls to 95%% accuracy: %.2f   max single-poll APE: %.1f%%\n",
		r.MeanPollsTo95, r.MaxSinglePollAPE)
	return out
}
