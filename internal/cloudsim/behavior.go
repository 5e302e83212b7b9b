package cloudsim

import (
	"time"

	"skyfaas/internal/workload"
)

// Behavior describes what a deployment executes per invocation.
//
// Every behavior runs as platform continuations on its zone's events: no
// goroutine, no process. Sleep, Work and Probe behaviors time one run on
// the instance; a FanOut behavior also invokes child requests from the
// instance and gathers their responses — that is how the sampler's
// recursive fan-out tree is built.
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

// FanOutBehavior is an internal node of a recursive invocation tree (the
// sampler's polls, §3.1): at its start the node sends Children() child
// requests from its own zone, in order, holds its instance for Hold()
// (billed), and then gathers the children's responses in child order. It
// finishes when the last child has been gathered, so it ends at the later of
// the hold's end and the delivery of the last child it had to wait for.
// Event for event it is a process that invoked each child asynchronously,
// slept for the hold and waited on each child in turn (DESIGN.md,
// "Keep-alive lane and invocation record").
//
// A tree node implements it directly, one heap record per node: a
// pointer-receiver type embedding FanOutMark, whose Result returns a pointer
// into the node so that no answer is boxed.
type FanOutBehavior interface {
	Behavior
	// Children is the child count.
	Children() int
	// Hold is how long the node occupies its instance.
	Hold() time.Duration
	// Child builds child i's request. The platform fills in the node's
	// Account.
	Child(i int) Request
	// Gather is called as Gather(i, r) for every child, in child order. r
	// is the platform's record of the child and is valid only during the
	// call.
	Gather(i int, r *Response)
	// Result supplies the node's Response.Value once the last child is
	// gathered.
	Result() any
}

// FanOutMark makes the type that embeds it a Behavior. It is the one way
// outside this package to satisfy Behavior's unexported method, and it is
// meant only for FanOutBehavior implementations: any other type it makes a
// Behavior fails at start as an unknown behavior.
type FanOutMark struct{}

func (FanOutMark) isBehavior() {}
