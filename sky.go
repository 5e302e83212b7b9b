// Package sky is the public API of skyfaas: a from-scratch reproduction of
// "Sky Computing for Serverless: Infrastructure Assessment to Support
// Performance Enhancement" (Cordingly et al.).
//
// A Runtime bundles the full system: a deterministic simulated multi-cloud
// (41 regions across AWS Lambda, IBM Code Engine, and DigitalOcean
// Functions), a sky mesh of pre-deployed dynamic functions, the
// infrastructure sampling technique that characterizes each zone's hidden
// CPU pool, a per-workload performance model, and the smart routing system
// that exploits hardware heterogeneity for cost savings.
//
// Quickstart:
//
//	rt, err := sky.New(sky.Config{Seed: 42})
//	if err != nil { ... }
//	err = rt.Do(func(p *sim.Proc) error {
//		ch, _, err := rt.Characterize(p, "us-west-1a")   // profile a zone
//		if err != nil { return err }
//		fmt.Println(ch.Dist())                           // its CPU mix
//		rt.ProfileWorkloads(p, workload.IDs(), []string{"us-west-1a"}, 100)
//		res, err := rt.Run(p, sky.BurstSpec{             // route a burst
//			Strategy:   sky.Hybrid{},
//			Workload:   workload.Zipper,
//			N:          100,
//			Candidates: []string{"us-west-1a", "us-west-1b"},
//		})
//		...
//	})
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package sky

import (
	"skyfaas/internal/chaos"
	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/router"
	"skyfaas/internal/sampler"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// Core assembly.
type (
	// Runtime is a fully assembled serverless sky computing system.
	Runtime = core.Runtime
	// Config assembles a Runtime; the zero value plus a Seed is a
	// complete, paper-faithful configuration.
	Config = core.Config
)

// New builds a Runtime over the default 41-region world (or cfg.Catalog).
func New(cfg Config) (*Runtime, error) { return core.New(cfg) }

// Routing strategies (§3.5).
type (
	// Strategy decides burst placement and CPU bans.
	Strategy = router.Strategy
	// Baseline pins bursts to one zone with no retries.
	Baseline = router.Baseline
	// Regional routes each burst to the best-characterized zone.
	Regional = router.Regional
	// RetrySlow retries invocations landing on the slowest CPUs.
	RetrySlow = router.RetrySlow
	// FocusFastest aggressively retries anything off the fastest CPU.
	FocusFastest = router.FocusFastest
	// Hybrid combines region hopping with overhead-optimal CPU retries.
	Hybrid = router.Hybrid
	// LatencyBound filters candidates by client round-trip time (§3.4's
	// client-region distance heuristic).
	LatencyBound = router.LatencyBound
	// CostAware optimizes expected dollars across provider rate cards.
	CostAware = router.CostAware
	// BurstSpec describes one routed batch of invocations.
	BurstSpec = router.BurstSpec
)

// Resilience bounds a burst's retries and switches its circuit breaker
// (with failover) and hedging.
type Resilience = router.Resilience

// DefaultResilience returns the recommended production posture: breaker,
// failover, three attempts with jittered backoff.
func DefaultResilience() *Resilience { return router.DefaultResilience() }

// Scenario is a named, composable set of fault windows: fault injection,
// chaos engineering over the simulated sky.
type Scenario = chaos.Scenario

// ScenarioByName builds a canned chaos scenario targeting az.
func ScenarioByName(name, az string) (Scenario, bool) { return chaos.ScenarioByName(name, az) }

// ScenarioNames lists the canned chaos scenario names, sorted.
func ScenarioNames() []string { return chaos.ScenarioNames() }

// Characterization machinery (RQ-1/RQ-2).
type (
	// Dist is a CPU-kind share distribution.
	Dist = charact.Dist
	// SamplerConfig tunes the polling technique.
	SamplerConfig = sampler.Config
)

// APE is the absolute percentage error between two distributions
// (total-variation distance in percent).
func APE(est, ref Dist) float64 { return charact.APE(est, ref) }

// World model.
type (
	// RegionSpec statically describes a region.
	RegionSpec = cloudsim.RegionSpec
	// AZSpec statically describes an availability zone.
	AZSpec = cloudsim.AZSpec
)

// DefaultCatalog returns the 41-region default world.
func DefaultCatalog() []RegionSpec { return cloudsim.DefaultCatalog() }

// Simulation plumbing needed by client code.
type (
	// Proc is the cooperative client process handed to Runtime.Do.
	Proc = sim.Proc
	// WorkloadID identifies a Table-1 workload.
	WorkloadID = workload.ID
	// WorkloadSpec is a Table-1 workload's description and cost model.
	WorkloadSpec = workload.Spec
)

// Workloads re-exports the Table-1 catalog for convenience.
func Workloads() []WorkloadSpec { return workload.All() }

// WorkloadByName resolves a Table-1 workload by its snake_case name.
func WorkloadByName(name string) (WorkloadSpec, bool) { return workload.ByName(name) }
