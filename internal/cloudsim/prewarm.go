package cloudsim

import (
	"fmt"
	"time"
)

// This file is the warm-pool actuator surface: the primitives a predictive
// pre-warming policy (internal/warmpool) uses to provision idle instances
// ahead of demand. Pre-warmed FIs are ordinary FIs — they occupy host
// slots (so DriftBurst's idle-host redraw leaves their hosts alone), arm
// the normal keep-alive expiry, are reused LIFO by arriving requests, and
// their initialization is billed to the provisioning account under a
// "warmpool/<region>" bucket so the spend is separable in Billing rollups.
// Capacity held above keep-alive by a warm floor is billed too — at a
// discounted GB-time rate under "warmpool/hold/<region>" — so every policy
// pays for the instance-seconds it reserves, not just for explicit
// pre-warms.

// warmPoolPrefix namespaces warm-pool provisioning charges inside an
// account's meter buckets, one bucket per region.
const warmPoolPrefix = "warmpool/"

// WarmHoldFactor prices floor-held warm capacity as this fraction of the
// compute GB-time rate, mirroring real providers' provisioned-concurrency
// discount: reserving a warm instance costs less than running one, but it
// is never free. This is what makes the warm-pool policy comparison honest
// — a reactive floor that tracks the traffic curve pays for every
// instance-second it holds, not just for explicit pre-warm initializations.
const WarmHoldFactor = 0.25

// WarmPoolBucket returns the meter bucket warm-pool provisioning in region
// is charged to.
func WarmPoolBucket(region string) string { return warmPoolPrefix + region }

// WarmHoldBucket returns the meter bucket floor-hold charges in region are
// billed to, separable from initialization spend in rollups but still under
// the warm-pool prefix.
func WarmHoldBucket(region string) string { return warmPoolPrefix + "hold/" + region }

// WarmPoolSpend returns an account's cumulative warm-pool spend across all
// regions — pre-warm initializations plus floor-hold charges — from the
// billing meter.
func (c *Cloud) WarmPoolSpend(account string) float64 {
	return c.meter.TotalPrefix(account, warmPoolPrefix)
}

// settleWarmHold bills the hold charge accrued since the last settlement to
// the deployment's floor account and restarts the clock. Held capacity is
// min(floor, live) — like real provisioned-concurrency pricing, the bill
// covers the capacity the floor reserves whether requests use it or not,
// but a floor the pool never actually reached costs nothing.
func (az *AZ) settleWarmHold(dep *Deployment) float64 {
	now := az.cloud.env.Now()
	since := dep.floorSince
	dep.floorSince = now
	if dep.floorAccount == "" || dep.floor <= 0 {
		return 0
	}
	held := dep.floor
	if dep.live < held {
		held = dep.live
	}
	ms := float64(now.Sub(since)) / float64(time.Millisecond)
	if held <= 0 || ms <= 0 {
		return 0
	}
	price := az.cloud.prices[az.region.spec.Provider]
	cost := float64(held) * price.Cost(dep.memoryMB, ms) * WarmHoldFactor
	if cost > 0 {
		az.cloud.meter.ChargeIn(dep.floorAccount, WarmHoldBucket(az.region.spec.Name), cost)
	}
	return cost
}

// ProvisionResult reports one ensure-warm actuation on a deployment.
type ProvisionResult struct {
	AZ       string
	Function string
	// Live is the deployment's provisioned instance count after actuation
	// (busy + idle + still initializing); Idle counts only the reusable
	// warm instances, excluding ones whose init is still in flight.
	Live int
	Idle int
	// Requested is the deficit the actuator tried to fill; Provisioned is
	// what host capacity allowed.
	Requested   int
	Provisioned int
	// CostUSD is the total billed spend of this actuation: pre-warm
	// initializations plus the floor-hold charge accrued since the previous
	// actuation. HoldUSD is the hold component alone.
	CostUSD float64
	HoldUSD float64
	Err     error
}

// PreWarm provisions n idle instances of fn, billing each initialization to
// account. Instances are busy (and hold their host slot) for the duration
// of a cold-start-distributed init, then join the warm pool and arm the
// normal keep-alive expiry. Must run inside the simulation. Returns how
// many instances host capacity allowed and the billed cost.
func (az *AZ) PreWarm(fn string, n int, account string) (int, float64, error) {
	dep, ok := az.deployments[fn]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s/%s", ErrNoSuchDeployment, az.spec.Name, fn)
	}
	price := az.cloud.prices[az.region.spec.Provider]
	provisioned := 0
	costUSD := 0.0
	for i := 0; i < n; i++ {
		host := az.placeHost(dep.arch)
		if host == nil {
			az.m.saturation.Inc()
			az.maybeScaleUp()
			break
		}
		fi := az.provisionFI(dep, host)
		// Initialization follows the same distribution as a request-path
		// cold start — including any injected cold-start spike — but is
		// billed (a pre-warm is platform work the account pays for, unlike
		// the free init a request absorbs as latency).
		ms := az.rand.LogNorm(0, coldStartSigma) * coldStartMS * az.fault.coldStartFactor()
		ms *= initMemoryFactor(dep.memoryMB)
		cost := price.Cost(dep.memoryMB, ms)
		az.cloud.meter.ChargeIn(account, WarmPoolBucket(az.region.spec.Name), cost)
		costUSD += cost
		provisioned++
		az.m.preWarms.Inc()
		az.cloud.env.Schedule(time.Duration(ms*float64(time.Millisecond)), func() {
			if fi.destroyed {
				return
			}
			az.idle(fi)
		})
	}
	return provisioned, costUSD, nil
}

// SetWarmFloor sets the deployment's warm-pool floor: keep-alive expiry
// holds up to n idle instances alive instead of reaping them. Every idle
// instance is re-armed so a lowered floor reaps the excess after one
// keep-alive window. The re-arm leaves idleSeq alone, so the timer an
// instance already had stays valid and fires first: if the floor no longer
// holds the instance it is reaped then and the duplicate finds it
// destroyed; if the floor still holds it, the duplicate checks again one
// window after this call. Must run inside the simulation.
func (az *AZ) SetWarmFloor(fn string, n int) error {
	dep, ok := az.deployments[fn]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoSuchDeployment, az.spec.Name, fn)
	}
	if n < 0 {
		n = 0
	}
	dep.floor = n
	for fi := dep.idleHead; fi != nil; fi = fi.next {
		az.cloud.keepAlive().Push(fi)
	}
	return nil
}

// StartEnsureWarm raises fn in azName toward target provisioned instances
// and sets its warm floor: the command reaches the zone after the
// intra-cloud one-way latency, settles the hold charge accrued under the
// previous floor, tops up the deficit (target minus currently provisioned
// instances) via PreWarm, and delivers the result back after the same
// latency. The deficit is measured against *live* instances, not idle ones,
// so a pool busy serving traffic is not doubled by re-provisioning what
// will be released back anyway.
func (c *Cloud) StartEnsureWarm(azName, fn string, target, floor int, account string, done func(ProvisionResult)) {
	oneWay := c.oneWay()
	az, ok := c.azBy[azName]
	if !ok {
		res := ProvisionResult{AZ: azName, Function: fn, Err: fmt.Errorf("%w: %q", ErrNoSuchAZ, azName)}
		c.env.Schedule(c.opts.IntraCloudRTT, func() { done(res) })
		return
	}
	c.env.Schedule(oneWay, func() {
		res := ProvisionResult{AZ: azName, Function: fn}
		if dep, ok := az.deployments[fn]; !ok {
			res.Err = fmt.Errorf("%w: %s/%s", ErrNoSuchDeployment, azName, fn)
		} else {
			// Settle the hold charge accrued under the previous floor before
			// applying the new one, then restart the clock under account.
			res.HoldUSD = az.settleWarmHold(dep)
			dep.floorAccount = account
			_ = az.SetWarmFloor(fn, floor)
			if deficit := target - dep.live; deficit > 0 {
				res.Requested = deficit
				res.Provisioned, res.CostUSD, _ = az.PreWarm(fn, deficit, account)
			}
			res.CostUSD += res.HoldUSD
			res.Live = dep.live
			res.Idle = dep.idle
		}
		c.env.Schedule(oneWay, func() { done(res) })
	})
}
