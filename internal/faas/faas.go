// Package faas is the client-side SDK over the simulated cloud: the thin
// layer an application (or our sampler and router) uses to deploy functions
// and invoke them synchronously, asynchronously, or in parallel batches.
//
// It deliberately mirrors the shape of a real FaaS SDK — an account-scoped
// client with a network vantage point — so the code above it reads like a
// program against AWS Lambda rather than against a simulator.
package faas

import (
	"fmt"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/geo"
	"skyfaas/internal/rng"
	"skyfaas/internal/sim"
)

// Client issues requests against the cloud on behalf of one account from
// one network vantage point.
type Client struct {
	cloud   *cloudsim.Cloud
	account string
	loc     *geo.Coord
	rand    *rng.Stream
	// free holds plain envelopes for reuse. A client runs on its cloud's
	// one simulation thread, so the list needs no lock.
	free []*envelope
}

// Option configures a Client.
type Option func(*Client)

// WithLocation places the client at a geographic vantage point; requests
// pay realistic network latency to each region. Without it the client is
// co-located with the cloud (intra-cloud latency only).
func WithLocation(loc geo.Coord) Option {
	return func(c *Client) {
		l := loc
		c.loc = &l
	}
}

// WithSeed derives the client's private randomness (retry-backoff jitter)
// from seed instead of the account-name default, letting experiments tie
// client behavior to their run seed.
func WithSeed(seed uint64) Option {
	return func(c *Client) {
		c.rand = rng.New(seed).Split("faas/" + c.account)
	}
}

// NewClient returns a client for account.
func NewClient(cloud *cloudsim.Cloud, account string, opts ...Option) *Client {
	c := &Client{cloud: cloud, account: account}
	c.rand = rng.New(0).Split("faas/" + account)
	for _, o := range opts {
		o(c)
	}
	return c
}

// Account returns the account the client bills against.
func (c *Client) Account() string { return c.account }

// Cloud returns the underlying cloud.
func (c *Client) Cloud() *cloudsim.Cloud { return c.cloud }

// Deploy creates a function deployment in the named zone.
func (c *Client) Deploy(az, name string, cfg cloudsim.DeployConfig) (*cloudsim.Deployment, error) {
	dep, err := c.cloud.Deploy(az, name, cfg)
	if err != nil {
		return nil, fmt.Errorf("deploy %s/%s: %w", az, name, err)
	}
	return dep, nil
}

// Call addresses one invocation.
type Call struct {
	AZ       string
	Function string
	// Work optionally overrides a dynamic deployment's behavior.
	Work cloudsim.Behavior
	// PayloadHash keys the dynamic-function per-instance cache.
	PayloadHash string
}

func (c *Client) request(call Call) cloudsim.Request {
	return cloudsim.Request{
		Account:     c.account,
		AZ:          call.AZ,
		Function:    call.Function,
		Work:        call.Work,
		PayloadHash: call.PayloadHash,
		ClientLoc:   c.loc,
	}
}

// Invoke performs a blocking invocation from the calling process.
//
// Deprecated: use Do with an InvokeSpec; Invoke is Do with a zero envelope
// (single attempt, no hedge, no deadline).
func (c *Client) Invoke(p *sim.Proc, call Call) cloudsim.Response {
	return c.Do(p, InvokeSpec{Call: call})
}

// Future is a pending asynchronous invocation.
type Future struct {
	ev *sim.Event
}

// Wait blocks until the response arrives.
func (f *Future) Wait(p *sim.Proc) cloudsim.Response {
	v := p.Wait(f.ev)
	r, ok := v.(cloudsim.Response)
	if !ok {
		return cloudsim.Response{Err: cloudsim.ErrBadRequest}
	}
	return r
}

// Done reports whether the response has arrived.
func (f *Future) Done() bool { return f.ev.Triggered() }

// InvokeAsync starts an invocation and returns a Future.
//
// Deprecated: use DoAsync with an InvokeSpec.
func (c *Client) InvokeAsync(call Call) *Future {
	ev := sim.NewEvent(c.cloud.Env())
	c.cloud.StartInvoke(c.request(call), func(r cloudsim.Response) { ev.Trigger(r) })
	return &Future{ev: ev}
}

// Start issues an invocation with a completion callback — the streaming
// form batch clients use to reissue work the moment a response arrives.
func (c *Client) Start(call Call, done func(cloudsim.Response)) {
	c.cloud.StartInvoke(c.request(call), done)
}

// InvokeBatch issues n copies of call concurrently and returns all
// responses in completion-independent order (index i is request i).
//
// Deprecated: fan out DoAsync calls with an InvokeSpec instead.
func (c *Client) InvokeBatch(p *sim.Proc, call Call, n int) []cloudsim.Response {
	futures := make([]*Future, n)
	for i := range futures {
		futures[i] = c.InvokeAsync(call)
	}
	out := make([]cloudsim.Response, n)
	for i, f := range futures {
		out[i] = f.Wait(p)
	}
	return out
}
