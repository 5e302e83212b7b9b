package cloudsim

import (
	"time"

	"skyfaas/internal/cpu"
	"skyfaas/internal/sim"
	"skyfaas/internal/workload"
)

// Behavior describes what a deployment executes per invocation.
//
// Sleep and Work behaviors run on the simulator's fast path (pure events,
// no goroutine); Handler behaviors run as a cooperative process and may
// perform nested invocations — that is how the sampler's recursive
// fan-out tree is built.
type Behavior interface {
	isBehavior()
}

// SleepBehavior pauses for a fixed duration, like the paper's sampling
// functions that sleep to pin concurrent requests on unique instances.
type SleepBehavior struct {
	D time.Duration
}

func (SleepBehavior) isBehavior() {}

// WorkBehavior executes one Table-1 workload; its simulated runtime follows
// the workload's cost model on the host CPU the instance landed on.
type WorkBehavior struct {
	Workload workload.ID
	// Scale multiplies the workload's base runtime (0 means 1).
	Scale float64
	// ExtraMS adds fixed overhead (payload decode, framework time).
	ExtraMS float64
}

func (WorkBehavior) isBehavior() {}

func (w WorkBehavior) scale() float64 {
	if w.Scale <= 0 {
		return 1
	}
	return w.Scale
}

// HandlerBehavior runs fn as a cooperative process with full access to the
// instance context, including nested invocations.
type HandlerBehavior struct {
	Fn Handler
}

func (HandlerBehavior) isBehavior() {}

// Handler is the body of a HandlerBehavior deployment.
type Handler func(ctx *Ctx, req Request) (any, error)

// Ctx is what a running handler can see and do from inside its function
// instance. Methods must only be called from the handler's own process.
type Ctx struct {
	cloud *Cloud
	az    *AZ
	dep   *Deployment
	fi    *FI
	proc  *sim.Proc
	cold  bool
}

// Sleep occupies the instance for d (billed).
func (c *Ctx) Sleep(d time.Duration) { c.proc.Sleep(d) }

// Compute executes workload w on this instance, occupying it for the
// modeled duration, and returns that duration.
func (c *Ctx) Compute(w WorkBehavior) time.Duration {
	d := c.cloud.modelRuntime(c.az, c.dep, c.fi.host, w)
	c.proc.Sleep(d)
	return d
}

// Invoke performs a nested invocation (intra-cloud latency applies when the
// request has no client location) and blocks until it completes.
func (c *Ctx) Invoke(req Request) Response {
	return c.cloud.Invoke(c.proc, req)
}

// InvokeAsync starts a nested invocation and returns an event that triggers
// with its Response; wait on it with Wait. Handlers use this to fan out
// child invocations in parallel, as the sampler's branching tree does. The
// child is invoked from this instance's zone, so its network path — and
// under a sharded engine, the shard crossing — starts here. The event's raw
// value (Event.Value, and what Proc.Wait returns) is a *Response pointing
// into the platform's record of the request, complete by the time the
// event triggers; Wait copies it out.
func (c *Ctx) InvokeAsync(req Request) *sim.Event {
	ev := sim.NewEvent(c.az.env)
	c.cloud.start(c.az.env, req, nil, ev)
	return ev
}

// Wait blocks the handler until ev triggers and returns the Response it
// carried.
func (c *Ctx) Wait(ev *sim.Event) Response {
	r, ok := c.proc.Wait(ev).(*Response)
	if !ok {
		return Response{Err: ErrBadRequest}
	}
	return *r
}

// CPUInfo returns the /proc/cpuinfo content visible inside the instance.
func (c *Ctx) CPUInfo() string {
	return cpu.CPUInfo(c.fi.host.kind, c.dep.vcpus())
}

// FIID returns the instance identifier.
func (c *Ctx) FIID() string { return c.fi.id }

// HostID returns the host identifier visible to the guest.
func (c *Ctx) HostID() string { return c.fi.host.ID() }

// Cold reports whether this invocation cold-started the instance.
func (c *Ctx) Cold() bool { return c.cold }

// Now returns the current virtual time on this instance's zone.
func (c *Ctx) Now() time.Time { return c.az.env.Now() }

// CacheHas reports whether a payload hash was already decoded on this
// instance, and CachePut records one — the dynamic-function payload cache
// (§3.2).
func (c *Ctx) CacheHas(hash string) bool {
	_, ok := c.fi.cache[hash]
	return ok
}

// CachePut records a decoded payload hash on this instance.
func (c *Ctx) CachePut(hash string) {
	if c.fi.cache == nil {
		c.fi.cache = make(map[string]struct{})
	}
	c.fi.cache[hash] = struct{}{}
}
