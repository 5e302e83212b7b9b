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
