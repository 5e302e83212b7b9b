// Package experiments reproduces the paper's evaluation on the simulated
// sky: EX-1..EX-5 are its experiments (§3.1-3.5, Figs. 2-11), EX-6..EX-11
// extend it, and the ablations and the §4.6 trade-off justify its design
// choices. Each experiment builds its own deterministic world from a seed,
// runs its procedure, and returns the data behind the corresponding tables
// and figures, with Render methods producing paper-style text output.
//
// Every experiment runs at two scales, each one literal of its unexported
// preset struct: a config runs the full paper-scale preset unless
// Reduced() picked the benchmark-scale one. A config holds only the seed,
// that choice, and the fields a skybench flag overrides; every other
// parameter of a procedure is a named constant beside its reason.
package experiments

import (
	"time"

	"skyfaas/internal/core"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
)

// defaultEpoch starts every experiment on a Monday midnight UTC.
var defaultEpoch = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

// hopZones are the region-hopping candidates of EX-5 (paper: us-west-1a,
// us-west-1b, sa-east-1a), which EX-6, EX-7 and the routing ablations reuse.
var hopZones = []string{"us-west-1a", "us-west-1b", "sa-east-1a"}

// baselineAZ anchors the fixed-zone comparisons of EX-5 and the routing
// ablations (paper: us-west-1b).
const baselineAZ = "us-west-1b"

// reducedSampler polls EX-1 and EX-3..EX-7 at reduced scale, and the
// routing ablations: the paper's poll shape from 60 endpoints per zone.
var reducedSampler = sampler.Config{
	Endpoints: 60, PollSize: 222, Branch: 10,
	InterPollPause: 500 * time.Millisecond,
}

// EX4Zones are the five zones the paper tracked daily for two weeks.
func EX4Zones() []string {
	return []string{"us-west-1a", "us-west-1b", "sa-east-1a", "eu-north-1a", "ca-central-1a"}
}

// EX3Zones are the eleven zones of the progressive-sampling evaluation.
func EX3Zones() []string {
	return []string{
		"ca-central-1a", "eu-north-1a", "ap-northeast-1a", "sa-east-1a",
		"eu-central-1a", "ap-southeast-2a", "us-west-1a", "us-west-1b",
		"us-east-2a", "us-east-2b", "us-east-2c",
	}
}

// scaled returns the reduced preset if reduced is set, else the full one.
func scaled[P any](reduced bool, full, small P) P {
	if reduced {
		return small
	}
	return full
}

// inWorld builds an experiment world from cfg, on defaultEpoch and with
// only the minimal mesh (experiments pick 2 GB endpoints, which keeps
// construction fast), and runs body in it as the client process.
func inWorld(cfg core.Config, body func(rt *core.Runtime, p *sim.Proc) error) error {
	cfg.Epoch, cfg.SkipMesh = defaultEpoch, true
	rt, err := core.New(cfg)
	if err != nil {
		return err
	}
	return rt.Do(func(p *sim.Proc) error { return body(rt, p) })
}
