package cloudsim

// Accessors the tests read the idle lists and the keep-alive lane through.

// idleFIs returns the deployment's idle instances, oldest idle first: the
// order SetWarmFloor re-arms them in, and the reverse of reuse.
func (d *Deployment) idleFIs() []*FI {
	var out []*FI
	for fi := d.idleHead; fi != nil; fi = fi.next {
		out = append(out, fi)
	}
	return out
}

// keepAliveTimers reports the timers the cloud's keep-alive lane holds.
func (c *Cloud) keepAliveTimers() int {
	if c.expiry == nil {
		return 0
	}
	return c.expiry.Len()
}

// destroyedIdleRefs counts the destroyed instances the zone's deployments
// still reference from their idle lists.
func (az *AZ) destroyedIdleRefs() int {
	n := 0
	for _, d := range az.deployments {
		for _, fi := range d.idleFIs() {
			if fi.destroyed {
				n++
			}
		}
	}
	return n
}

// LiveFIs returns the number of currently provisioned function instances.
func (az *AZ) LiveFIs() int { return az.liveFIs }

// HostCount returns the number of x86 hosts currently provisioned.
func (az *AZ) HostCount() int {
	az.ensure()
	return len(az.hosts)
}

// WarmIdle reports fn's idle warm-instance count.
func (az *AZ) WarmIdle(fn string) int {
	dep, ok := az.deployments[fn]
	if !ok {
		return 0
	}
	return dep.idle
}

// WarmLive reports fn's provisioned instance count (busy + idle +
// initializing).
func (az *AZ) WarmLive(fn string) int {
	dep, ok := az.deployments[fn]
	if !ok {
		return 0
	}
	return dep.live
}
