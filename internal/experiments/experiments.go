// Package experiments reproduces the paper's five experiments (§3.5) on the
// simulated sky. Each experiment builds its own deterministic world from a
// seed, runs the paper's procedure, and returns the data behind the
// corresponding tables and figures, with Render methods producing
// paper-style text output.
//
// Every Run* function accepts a config whose zero value is the full
// paper-scale procedure; the Reduced() presets cut scale for benchmarks.
package experiments

import (
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/sampler"
)

// defaultEpoch starts every experiment on a Monday midnight UTC.
var defaultEpoch = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

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

// newRuntime builds an experiment world. Experiments only need the minimal
// mesh (they pick 2 GB endpoints), which keeps construction fast.
func newRuntime(seed uint64, horizonDays int, samplerCfg sampler.Config) (*core.Runtime, error) {
	return core.New(core.Config{
		Seed:       seed,
		Epoch:      defaultEpoch,
		SamplerCfg: samplerCfg,
		CloudOpts:  cloudsim.Options{HorizonDays: horizonDays},
		SkipMesh:   true,
	})
}
