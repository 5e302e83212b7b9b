package experiments

import (
	"fmt"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
)

// EX2Config parameterizes EX-2 (global infrastructure characterization,
// Fig. 2: CPU distributions of all 41 regions across three providers).
type EX2Config struct {
	Seed    uint64
	reduced bool
}

// Reduced returns c at benchmark scale.
func (c EX2Config) Reduced() EX2Config { c.reduced = true; return c }

// ex2Preset is one scale of EX-2.
type ex2Preset struct {
	// regions restricts the sweep (nil = every region in the catalog).
	regions []string
	// pollsPerAZ, when positive, uses the cheap fixed-poll mode instead of
	// saturating every zone (the full paper procedure).
	pollsPerAZ int
	sampler    sampler.Config
}

var (
	// ex2Full saturates every zone of every region.
	ex2Full = ex2Preset{}
	// ex2Reduced is a representative region slice with quick
	// characterizations.
	ex2Reduced = ex2Preset{
		regions:    []string{"us-west-2", "us-east-2", "il-central-1", "af-south-1", "us-south", "nyc1"},
		pollsPerAZ: 3,
		sampler: sampler.Config{
			Endpoints: 40, PollSize: 222, Branch: 10,
			InterPollPause: 500 * time.Millisecond,
		},
	}
)

// RegionChar is one region's aggregated characterization.
type RegionChar struct {
	Region   string
	Provider cloudsim.Provider
	// Dist aggregates the region's zones weighted by observed samples.
	Dist charact.Dist
	// Samples counts unique instances observed across the region's zones.
	Samples int
	CostUSD float64
}

// EX2Result is the Fig.-2 dataset.
type EX2Result struct {
	Regions   []RegionChar
	TotalCost float64
}

// RunEX2 executes EX-2.
func RunEX2(c EX2Config) (EX2Result, error) {
	cfg := scaled(c.reduced, ex2Full, ex2Reduced)
	want := make(map[string]bool, len(cfg.regions))
	for _, r := range cfg.regions {
		want[r] = true
	}
	var res EX2Result
	world := core.Config{Seed: c.Seed, SamplerCfg: cfg.sampler, CloudOpts: cloudsim.Options{HorizonDays: 3}}
	err := inWorld(world, func(rt *core.Runtime, p *sim.Proc) error {
		for _, region := range rt.Cloud().Regions() {
			if len(want) > 0 && !want[region.Name()] {
				continue
			}
			rc := RegionChar{Region: region.Name(), Provider: region.Provider()}
			counts := make(charact.Counts)
			for _, az := range region.AZs() {
				if err := rt.EnsureSamplerEndpoints(az.Name()); err != nil {
					return err
				}
				var ch charact.Characterization
				var err error
				if cfg.pollsPerAZ > 0 {
					ch, _, err = rt.Sampler().CharacterizeQuick(p, az.Name(), cfg.pollsPerAZ)
				} else {
					ch, _, err = rt.Sampler().Characterize(p, az.Name())
				}
				if err != nil {
					return fmt.Errorf("characterize %s: %w", az.Name(), err)
				}
				rt.Store().Put(ch)
				counts.Merge(ch.Counts)
				rc.Samples += ch.Samples
				rc.CostUSD += ch.CostUSD
			}
			rc.Dist = counts.Dist()
			res.Regions = append(res.Regions, rc)
			res.TotalCost += rc.CostUSD
		}
		return nil
	})
	if err != nil {
		return EX2Result{}, err
	}
	return res, nil
}

// Render produces the Fig.-2 style table.
func (r EX2Result) Render() string {
	t := tablefmt.New("region", "provider", "FIs", "cost", "cpu distribution")
	for _, rc := range r.Regions {
		t.Row(rc.Region, rc.Provider.String(), rc.Samples, tablefmt.USD(rc.CostUSD), rc.Dist.String())
	}
	return fmt.Sprintf("EX-2 / Fig. 2 — global CPU characterization (%d regions, total %s)\n",
		len(r.Regions), tablefmt.USD(r.TotalCost)) + t.String()
}
