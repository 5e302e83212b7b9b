// Package sampler implements the paper's FaaS infrastructure sampling
// technique (§3.1):
//
//   - Deploy many (default 100) identical-logic sampling functions per zone,
//     each with a unique memory setting and code hash, so no two endpoints
//     share warm instances.
//   - A *poll* drives ~1,000 concurrent requests through a branching tree
//     of recursive function invocations — the client only issues a handful
//     of root requests; the tree fans out platform-side — while each
//     request sleeps briefly so every concurrent request pins a unique
//     function instance. Leaves are cloudsim SleepBehaviors and each
//     internal node is one record that implements cloudsim.FanOutBehavior:
//     the whole tree runs as platform continuations on the zone's events,
//     with no process per node.
//   - Each request returns its SAAF profile into one report slab per
//     characterization run, cleared and refilled by every poll;
//     deduplicating by instance number yields new-hardware observations per
//     poll, and the per-poll trail keeps only their counts.
//   - Successive polls cycle endpoints until the zone saturates: when more
//     than half of a poll's requests fail, the accumulated observation is
//     the zone's ground-truth characterization (§4.1's stop rule).
package sampler

import (
	"fmt"
	"time"

	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/faas"
	"skyfaas/internal/saaf"
	"skyfaas/internal/sim"
)

// Sleep is how long each sampling request holds its instance: the paper's
// Fig.-3 choice for 2 GB endpoints, long enough that a poll's concurrent
// requests cannot reuse one another's instances.
const Sleep = 250 * time.Millisecond

// The rest of the technique is fixed at the paper's values too.
const (
	// memoryMB is the base memory setting; endpoint i deploys at
	// memoryMB+i so every endpoint is a distinct configuration.
	memoryMB = 2048
	// failStop stops characterization when a poll's failure fraction
	// exceeds it: past half, the zone is saturated.
	failStop = 0.5
	// maxPolls bounds a characterization run that never saturates.
	maxPolls = 200
	// treeDepth is the depth of a poll's trees below their roots.
	treeDepth = 2
)

// Config tunes the sampling technique. Zero fields take the paper's values.
type Config struct {
	// Endpoints is the number of sampling functions deployed per zone.
	Endpoints int
	// PollSize is the target number of concurrent requests per poll.
	PollSize int
	// Branch is the fan-out of each internal tree node; trees are three
	// levels deep (root, Branch children, Branch^2 leaves).
	Branch int
	// InterPollPause separates successive polls.
	InterPollPause time.Duration
	// Prefix namespaces the sampling deployments so independent accounts
	// (EX-1's two-account validation) can sample the same zone (default
	// "skysample").
	Prefix string
}

func (c Config) withDefaults() Config {
	if c.Endpoints == 0 {
		c.Endpoints = 100
	}
	if c.PollSize == 0 {
		c.PollSize = 1000
	}
	if c.Branch == 0 {
		c.Branch = 10
	}
	if c.InterPollPause == 0 {
		c.InterPollPause = time.Second
	}
	if c.Prefix == "" {
		c.Prefix = "skysample"
	}
	return c
}

// treeSize returns the number of requests a three-level tree generates.
func (c Config) treeSize() int { return 1 + c.Branch + c.Branch*c.Branch }

// roots returns how many root requests approximate PollSize.
func (c Config) roots() int {
	r := c.PollSize / c.treeSize()
	if r < 1 {
		return 1
	}
	return r
}

// Sampler profiles zones on behalf of one client account.
type Sampler struct {
	client *faas.Client
	cfg    Config
	// onReports, when set, sees each poll's slab before it is reused.
	// Only tests set it.
	onReports func([]saaf.Report)
}

// New returns a sampler issuing requests through client.
func New(client *faas.Client, cfg Config) *Sampler {
	return &Sampler{client: client, cfg: cfg.withDefaults()}
}

// Config returns the effective configuration.
func (s *Sampler) Config() Config { return s.cfg }

func (s *Sampler) endpointName(az string, i int) string {
	return fmt.Sprintf("%s-%s-%03d", s.cfg.Prefix, az, i)
}

// Deploy installs the sampling endpoints in a zone. Each endpoint is a
// dynamic function with a unique memory setting and code hash.
func (s *Sampler) Deploy(az string) error {
	for i := 0; i < s.cfg.Endpoints; i++ {
		_, err := s.client.Deploy(az, s.endpointName(az, i), cloudsim.DeployConfig{
			MemoryMB: memoryMB + i,
			Dynamic:  true,
			Behavior: cloudsim.SleepBehavior{D: Sleep},
			CodeHash: fmt.Sprintf("%s-v1-%03d", s.cfg.Prefix, i),
		})
		if err != nil {
			return fmt.Errorf("sampler: %w", err)
		}
	}
	return nil
}

// treeResult aggregates a subtree's failures and spend as they bubble up.
// Reports do not travel with it: every node writes each successful child's
// report straight into that child's slot of its poll's tree.
type treeResult struct {
	failed int
	cost   float64
}

// subtreeRequests returns the request count of a subtree rooted at depth.
func (s *Sampler) subtreeRequests(depth int) int {
	total := 1
	width := 1
	for d := 0; d < depth; d++ {
		width *= s.cfg.Branch
		total += width
	}
	return total
}

// tree is one poll's fan-out: the endpoint every node invokes, how long
// each request holds its instance, and one report slot per request in
// preorder, so a node rooted at slot i has its j'th child at
// i + 1 + j*subtreeRequests(depth-1). A slot is filled when its request
// succeeds, and a filled slot's Instance is never 0. Read in slot order, the
// filled slots are the reports in the order a depth-first walk of the tree
// meets them.
type tree struct {
	s      *Sampler
	az, fn string
	sleep  time.Duration
	leaf   cloudsim.Behavior // shared by every leaf: a leaf writes no slot
	slots  []saaf.Report
}

// collect files the response of the node at slot, a subtree of size
// requests, into agg: its report into its slot and its subtree's failures
// and spend into the totals. A failed node's subtree is wiped, since its
// reports never reached the caller.
func (t *tree) collect(agg *treeResult, r *cloudsim.Response, slot, size int) {
	if !r.OK() {
		agg.failed += size
		clear(t.slots[slot : slot+size])
		return
	}
	agg.cost += r.CostUSD
	t.slots[slot] = r.Profile
	if sub, ok := r.Value.(*treeResult); ok {
		agg.failed += sub.failed
		agg.cost += sub.cost
	}
}

// work returns the behavior of the tree node at the given depth and slot.
// Leaves sleep; an internal node is one record that fans out to the same
// endpoint, holds its own instance for the sleep while its children run,
// and collects the children's observations.
func (t *tree) work(depth, slot int) cloudsim.Behavior {
	if depth == 0 {
		return t.leaf
	}
	return &node{t: t, depth: depth, slot: slot, size: t.s.subtreeRequests(depth - 1)}
}

// node is an internal tree node at depth, rooted at slot: its i'th child
// roots a subtree of size requests at slot+1+i*size, and agg totals what
// its children's subtrees report. It is the node's cloudsim.FanOutBehavior,
// and its Result points at agg, so the node is its only heap record.
type node struct {
	cloudsim.FanOutMark
	t                 *tree
	depth, slot, size int
	agg               treeResult
}

func (n *node) Children() int { return n.t.s.cfg.Branch }

func (n *node) Hold() time.Duration { return n.t.sleep }

func (n *node) Child(i int) cloudsim.Request {
	return cloudsim.Request{
		AZ:       n.t.az,
		Function: n.t.fn,
		Work:     n.t.work(n.depth-1, n.slot+1+i*n.size),
	}
}

func (n *node) Gather(i int, r *cloudsim.Response) {
	n.t.collect(&n.agg, r, n.slot+1+i*n.size, n.size)
}

func (n *node) Result() any { return &n.agg }

// PollResult is one poll's outcome.
type PollResult struct {
	// Endpoint is the sampling function index used.
	Endpoint int
	// Requested counts requests issued (client roots plus tree fan-out).
	Requested int
	// Failed counts requests that never ran (throttled/saturated).
	Failed int
	// Reported counts the successful requests, each of which returned a
	// SAAF report.
	Reported int
	// NewFIs counts instances not seen in earlier polls of the same
	// characterization run; for a standalone poll, the distinct instances
	// it saw.
	NewFIs int
	// Fresh is the CPU counts of those first sightings.
	Fresh charact.Counts
	// CostUSD is the poll's total spend.
	CostUSD float64
}

// FailFrac returns the failed fraction of requested calls.
func (r PollResult) FailFrac() float64 {
	if r.Requested == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Requested)
}

// Poll runs one poll against endpoint idx (mod Endpoints) in az.
func (s *Sampler) Poll(p *sim.Proc, az string, idx int) PollResult {
	return s.poll(p, az, idx, s.newRun())
}

// run is what the polls of one characterization run share: the report slab
// each poll clears and refills, and the instances sighted so far. Polls of
// one Sampler can interleave across procs, so a slab belongs to its run.
type run struct {
	slab []saaf.Report
	seen sightings
}

func (s *Sampler) newRun() *run {
	return &run{slab: make([]saaf.Report, s.cfg.roots()*s.subtreeRequests(treeDepth))}
}

func (s *Sampler) poll(p *sim.Proc, az string, idx int, r *run) PollResult {
	idx %= s.cfg.Endpoints
	return s.pollWith(p, az, s.endpointName(az, idx), idx, Sleep, r)
}

func (s *Sampler) pollWith(p *sim.Proc, az, fn string, idx int, sleep time.Duration, r *run) PollResult {
	roots, size := s.cfg.roots(), s.subtreeRequests(treeDepth)
	clear(r.slab)
	t := &tree{
		s: s, az: az, fn: fn, sleep: sleep,
		leaf:  cloudsim.SleepBehavior{D: sleep},
		slots: r.slab,
	}
	// The roots are collected in issue order, not arrival order: the cost
	// sum, and so every output, is pinned to it.
	resps := make([]cloudsim.Response, roots)
	left, all := roots, sim.NewEvent(p.Env())
	for i := range resps {
		s.client.Start(faas.Call{
			AZ:       az,
			Function: fn,
			Work:     t.work(treeDepth, i*size),
		}, func(resp cloudsim.Response) {
			resps[i] = resp
			if left--; left == 0 {
				all.Trigger(nil)
			}
		})
	}
	p.Wait(all)
	var agg treeResult
	for i := range resps {
		t.collect(&agg, &resps[i], i*size, size)
	}
	res := PollResult{
		Endpoint:  idx,
		Requested: roots * size,
		Failed:    agg.failed,
		Fresh:     make(charact.Counts),
		CostUSD:   agg.cost,
	}
	// Count the filled slots and each instance's first sighting in the
	// run; only a successful request fills its slot, and every report
	// carries its instance's number, which starts at 1, so Instance 0 marks
	// a request that never reported.
	for _, rep := range t.slots {
		if rep.Instance == 0 {
			continue
		}
		res.Reported++
		if r.seen.first(rep.Instance) {
			res.Fresh.Add(rep.Kind)
		}
	}
	res.NewFIs = res.Fresh.Total()
	if s.onReports != nil {
		s.onReports(t.slots)
	}
	return res
}

// Characterize polls a zone until the saturation stop rule fires (or
// maxPolls), deduplicating instances across polls. It returns the
// accumulated characterization (the at-failure "ground truth" of EX-1)
// and the per-poll trail for progressive-sampling analysis.
func (s *Sampler) Characterize(p *sim.Proc, az string) (charact.Characterization, []PollResult, error) {
	return s.characterize(p, az, maxPolls, true)
}

// CharacterizeQuick runs exactly polls polls without driving the zone to
// saturation — the cheap refresh mode routing uses day to day.
func (s *Sampler) CharacterizeQuick(p *sim.Proc, az string, polls int) (charact.Characterization, []PollResult, error) {
	return s.characterize(p, az, polls, false)
}

func (s *Sampler) characterize(p *sim.Proc, az string, limit int, untilFailure bool) (charact.Characterization, []PollResult, error) {
	r := s.newRun()
	cum := make(charact.Counts)
	var trail []PollResult
	var cost float64
	for poll := 0; poll < limit; poll++ {
		res := s.poll(p, az, poll, r)
		cum.Merge(res.Fresh)
		cost += res.CostUSD
		trail = append(trail, res)
		if untilFailure && res.FailFrac() > failStop {
			break
		}
		p.Sleep(s.cfg.InterPollPause)
	}
	if cum.Total() == 0 {
		return charact.Characterization{}, trail, fmt.Errorf("sampler: no observations in %s", az)
	}
	return charact.Characterization{
		AZ:      az,
		Taken:   p.Env().Now(),
		Polls:   len(trail),
		Samples: cum.Total(),
		Counts:  cum,
		CostUSD: cost,
	}, trail, nil
}

// SweepPoint is one (sleep, memory) sample of the Fig.-3 tuning sweep.
type SweepPoint struct {
	Sleep     time.Duration
	MemoryMB  int
	UniqueFIs int
	CostUSD   float64
}

// SweepSleep measures unique-instance coverage and cost across sleep
// intervals and memory settings (Fig. 3). Each combination uses a dedicated
// endpoint, and combinations are separated by more than the keep-alive so
// earlier instances expire.
func (s *Sampler) SweepSleep(p *sim.Proc, az string, sleeps []time.Duration, memories []int) ([]SweepPoint, error) {
	keepAlive := s.client.Cloud().Options().KeepAlive
	var out []SweepPoint
	for _, mem := range memories {
		for _, sleep := range sleeps {
			fn := fmt.Sprintf("skysweep-%s-%dmb-%dms", az, mem, sleep.Milliseconds())
			if _, err := s.client.Deploy(az, fn, cloudsim.DeployConfig{
				MemoryMB: mem,
				Dynamic:  true,
				Behavior: cloudsim.SleepBehavior{D: sleep},
				CodeHash: fn,
			}); err != nil {
				return nil, fmt.Errorf("sampler: sweep: %w", err)
			}
			res := s.pollWith(p, az, fn, 0, sleep, s.newRun())
			out = append(out, SweepPoint{
				Sleep:     sleep,
				MemoryMB:  mem,
				UniqueFIs: res.NewFIs,
				CostUSD:   res.CostUSD,
			})
			p.Sleep(keepAlive + time.Minute)
		}
	}
	return out, nil
}

// sightings dedupes one zone's instances by the number each report
// carries (saaf.Report.Instance): instance n has been seen iff s[n]. The
// zone numbers its instances densely, so this is a flat bitmap where a set
// of instance names would hash every report.
type sightings []bool

// first reports whether this is the first sighting of instance n, and
// marks it seen.
func (s *sightings) first(n int) bool {
	if n >= len(*s) {
		*s = append(*s, make([]bool, n+1-len(*s))...)
	}
	if (*s)[n] {
		return false
	}
	(*s)[n] = true
	return true
}

// UniqueFIs counts the distinct instances among reports from one zone.
func UniqueFIs(reports []saaf.Report) int {
	var s sightings
	n := 0
	for _, rep := range reports {
		if s.first(rep.Instance) {
			n++
		}
	}
	return n
}
