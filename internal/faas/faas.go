// Package faas is the client-side SDK over the simulated cloud: the thin
// layer an application (or our sampler and router) uses to deploy functions
// and invoke them: one bare attempt with a callback (Start), or one logical
// invocation under a retry envelope, with a callback (DoFunc) or blocking a
// process (Do). Hedging and failover belong to the router's bursts
// (router.Resilience), the one place a workload uses them.
//
// It deliberately mirrors the shape of a real FaaS SDK — an account-scoped
// client — so the code above it reads like a program against AWS Lambda
// rather than against a simulator.
package faas

import (
	"fmt"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/rng"
)

// Client issues requests against the cloud on behalf of one account.
type Client struct {
	cloud   *cloudsim.Cloud
	account string
	rand    *rng.Stream
	// free holds finished envelopes for reuse. A client runs on its cloud's
	// one simulation thread, so the list needs no lock.
	free []*envelope
}

// Option configures a Client.
type Option func(*Client)

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
	}
}

// Start issues an invocation with a completion callback — the streaming
// form batch clients use to reissue work the moment a response arrives.
func (c *Client) Start(call Call, done func(cloudsim.Response)) {
	c.cloud.StartInvoke(c.request(call), done)
}
