package skyd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/charact"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/router"
	"skyfaas/internal/sim"
	"skyfaas/internal/tenant"
	"skyfaas/internal/workload"
)

// All handler logic runs inside Exec: the simulation state (store, perf
// model, cloud) belongs to the simulation goroutine, so even read-only
// endpoints marshal their answers from within a command.

func (s *Server) routes() {
	for _, def := range apiRouteDefs() {
		s.mount(def)
	}
	// Observability endpoints are deliberately uninstrumented (and never
	// authenticated): scrapes must stay readable without perturbing the
	// numbers they report, and a monitor must not need a tenant key.
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
}

// healthTimeout bounds how long a health probe waits for the simulation
// goroutine to answer before reporting the loop stalled.
const healthTimeout = 5 * time.Second

// errStalled is a health probe's answer when the simulation goroutine has
// not taken its no-op within healthTimeout.
var errStalled = errors.New("simulation loop stalled")

// probeHealth reports whether the simulation goroutine is still taking
// commands: it round-trips a no-op through the command channel and returns
// the virtual time the no-op read. A closed server answers ErrClosed, a
// loop that has not answered within healthTimeout errStalled; the no-op's
// goroutine then waits on until the loop takes it or Close ends Exec. Both
// health routes, /healthz and /v1/healthz, ask it.
func (s *Server) probeHealth() (time.Time, error) {
	type answer struct {
		now time.Time
		err error
	}
	ch := make(chan answer, 1)
	go func() {
		var a answer
		a.err = s.Exec(func(p *sim.Proc) error {
			a.now = p.Env().Now()
			return nil
		})
		ch <- a
	}()
	select {
	case a := <-ch:
		return a.now, a.err
	case <-time.After(healthTimeout):
		return time.Time{}, errStalled
	}
}

// handleHealth is the unversioned liveness probe: 200 with the virtual
// time while the simulation goroutine takes commands, 503 with the reason
// when the server is closed or the loop stalled.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	now, err := s.probeHealth()
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "down", "error": err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"virtualTime":   now,
		"cmdQueueDepth": int(s.queueDepth.Value()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.rt.Metrics().WritePrometheus(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.rt.Metrics().WriteJSON(w)
}

func (s *Server) handleHealthz(ctx context.Context, r *apiReq) (any, *apiError) {
	now, err := s.probeHealth()
	if err != nil {
		return nil, errFromExec(err)
	}
	return map[string]any{
		"status":      "ok",
		"virtualTime": now,
	}, nil
}

type zoneJS struct {
	Name     string `json:"name"`
	Region   string `json:"region"`
	Provider string `json:"provider"`
}

func (s *Server) handleZones(ctx context.Context, r *apiReq) (any, *apiError) {
	var zones []zoneJS
	err := s.Exec(func(p *sim.Proc) error {
		for _, region := range s.rt.Cloud().Regions() {
			for _, az := range region.AZs() {
				zones = append(zones, zoneJS{
					Name:     az.Name(),
					Region:   region.Name(),
					Provider: region.Provider().String(),
				})
			}
		}
		return nil
	})
	if err != nil {
		return nil, errFromExec(err)
	}
	return map[string]any{"zones": zones}, nil
}

type characterizationJS struct {
	AZ      string             `json:"az"`
	Taken   time.Time          `json:"taken"`
	Polls   int                `json:"polls"`
	Samples int                `json:"samples"`
	CostUSD float64            `json:"costUSD"`
	Dist    map[string]float64 `json:"dist"` // CPU label -> share
}

func charToJS(ch charact.Characterization) characterizationJS {
	dist := make(map[string]float64)
	for k, share := range ch.Dist() {
		dist[k.String()] = share
	}
	return characterizationJS{
		AZ: ch.AZ, Taken: ch.Taken, Polls: ch.Polls,
		Samples: ch.Samples, CostUSD: ch.CostUSD, Dist: dist,
	}
}

func (s *Server) handleCharacterizations(ctx context.Context, r *apiReq) (any, *apiError) {
	var out []characterizationJS
	err := s.Exec(func(p *sim.Proc) error {
		store := s.rt.Store()
		now := p.Env().Now()
		for _, az := range store.Zones() {
			if ch, ok := store.Get(az, now); ok {
				out = append(out, charToJS(ch))
			}
		}
		return nil
	})
	if err != nil {
		return nil, errFromExec(err)
	}
	return map[string]any{"characterizations": out}, nil
}

// Ceilings on the work one request body may ask for. The paper's bursts are
// 1,000 invocations and its profiles 2,000-10,000 runs, and every limit is
// at least ten times what cmd/, examples/ and bench/ send. Without them one
// body sizes the router's burst slab, or holds the single simulation
// goroutine for as long as the caller likes.
const (
	maxBurstN            = 100_000
	maxProfileRuns       = 100_000
	maxCharacterizePolls = 200 // the sampler's own bound on polls to saturation
)

// overLimit is the 400 for a request field above its ceiling.
func overLimit(field string, got, limit int) *apiError {
	return apiErrf(http.StatusBadRequest, "bad_request", "%s %d exceeds the limit of %d", field, got, limit)
}

type characterizeReq struct {
	AZ    string `json:"az"`
	Polls int    `json:"polls"`
}

func (s *Server) handleCharacterize(ctx context.Context, r *apiReq) (any, *apiError) {
	var req characterizeReq
	if e := r.decode(&req); e != nil {
		return nil, e
	}
	if req.Polls <= 0 {
		req.Polls = 6
	}
	if req.Polls > maxCharacterizePolls {
		return nil, overLimit("polls", req.Polls, maxCharacterizePolls)
	}
	var ch charact.Characterization
	err := s.Exec(func(p *sim.Proc) error {
		// Address the zone before spending anything: an unknown AZ is the
		// caller's error (404 unknown_az via errFromExec), not a gateway
		// failure of the simulated cloud.
		if _, ok := s.rt.Cloud().AZ(req.AZ); !ok {
			return fmt.Errorf("%w: %q", cloudsim.ErrNoSuchAZ, req.AZ)
		}
		if err := s.rt.EnsureSamplerEndpoints(req.AZ); err != nil {
			return err
		}
		got, _, err := s.rt.Sampler().CharacterizeQuick(p, req.AZ, req.Polls)
		if err != nil {
			return err
		}
		s.rt.Store().Put(got)
		ch = got
		return nil
	})
	if err != nil {
		return nil, errFromExec(err)
	}
	return charToJS(ch), nil
}

type profileReq struct {
	Workload string   `json:"workload"`
	Zones    []string `json:"zones"`
	Runs     int      `json:"runs"`
}

func (s *Server) handleProfile(ctx context.Context, r *apiReq) (any, *apiError) {
	var req profileReq
	if e := r.decode(&req); e != nil {
		return nil, e
	}
	spec, ok := workload.ByName(req.Workload)
	if !ok {
		return nil, apiErrf(http.StatusBadRequest, "unknown_workload", "unknown workload %q", req.Workload)
	}
	if req.Runs <= 0 {
		req.Runs = 300
	}
	if req.Runs > maxProfileRuns {
		return nil, overLimit("runs", req.Runs, maxProfileRuns)
	}
	if len(req.Zones) == 0 {
		return nil, apiErrf(http.StatusBadRequest, "bad_request", "no zones given")
	}
	var cost float64
	err := s.Exec(func(p *sim.Proc) error {
		// Pre-validate the zone list: the router reports unknown zones as a
		// generic mesh failure, which would masquerade as a 502.
		for _, az := range req.Zones {
			if _, ok := s.rt.Cloud().AZ(az); !ok {
				return fmt.Errorf("%w: %q", cloudsim.ErrNoSuchAZ, az)
			}
		}
		c, err := s.rt.ProfileWorkloads(p, []workload.ID{spec.ID}, req.Zones, req.Runs)
		cost = c
		return err
	})
	if err != nil {
		return nil, errFromExec(err)
	}
	return map[string]any{
		"workload": spec.Name,
		"costUSD":  cost,
	}, nil
}

func (s *Server) handlePerf(ctx context.Context, r *apiReq) (any, *apiError) {
	name := r.http.URL.Query().Get("workload")
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, apiErrf(http.StatusBadRequest, "unknown_workload", "unknown workload %q", name)
	}
	type kindJS struct {
		CPU     string  `json:"cpu"`
		MeanMS  float64 `json:"meanMS"`
		Samples int     `json:"samples"`
	}
	var kinds []kindJS
	err := s.Exec(func(p *sim.Proc) error {
		perf := s.rt.Perf()
		for _, k := range perf.Kinds(spec.ID) {
			mean, _ := perf.Mean(spec.ID, k)
			kinds = append(kinds, kindJS{
				CPU: k.String(), MeanMS: mean, Samples: perf.Samples(spec.ID, k),
			})
		}
		return nil
	})
	if err != nil {
		return nil, errFromExec(err)
	}
	return map[string]any{
		"workload": spec.Name,
		"kinds":    kinds,
	}, nil
}

type burstReq struct {
	Strategy   string             `json:"strategy"` // a router.Names() entry ("" = hybrid)
	AZ         string             `json:"az"`       // fixed zone for the pinned strategies
	Params     map[string]float64 `json:"params"`   // per-strategy scalars (see router.StrategySpec)
	Workload   string             `json:"workload"`
	N          int                `json:"n"`
	Candidates []string           `json:"candidates"`
}

type burstJS struct {
	Strategy  string         `json:"strategy"`
	Workload  string         `json:"workload"`
	AZ        string         `json:"az"`
	Completed int            `json:"completed"`
	Attempts  int            `json:"attempts"`
	Declined  int            `json:"declined"`
	Failed    int            `json:"failed"`
	RetryFrac float64        `json:"retryFrac"`
	MeanRunMS float64        `json:"meanRunMS"`
	CostUSD   float64        `json:"costUSD"`
	ElapsedMS float64        `json:"elapsedMS"`
	PerCPU    map[string]int `json:"perCPU"`
}

func (s *Server) handleBurst(ctx context.Context, r *apiReq) (any, *apiError) {
	var req burstReq
	if e := r.decode(&req); e != nil {
		return nil, e
	}
	spec, ok := workload.ByName(req.Workload)
	if !ok {
		return nil, apiErrf(http.StatusBadRequest, "unknown_workload", "unknown workload %q", req.Workload)
	}
	if req.Strategy == "" {
		req.Strategy = "hybrid"
	}
	strat, err := router.Build(
		router.StrategySpec{Name: req.Strategy, AZ: req.AZ, Params: req.Params},
		router.WithLocator(router.NewZoneLocator(s.rt.Cloud())),
		router.WithPricer(router.NewZonePricer(s.rt.Cloud())),
	)
	if err != nil {
		code := "bad_request"
		if errors.Is(err, router.ErrUnknownStrategy) {
			code = "unknown_strategy"
		}
		return nil, apiErrf(http.StatusBadRequest, code, "%v", err)
	}
	if req.N < 0 {
		return nil, apiErrf(http.StatusBadRequest, "bad_request", "n %d is negative", req.N)
	}
	if req.N == 0 {
		req.N = 100
	}
	if req.N > maxBurstN {
		return nil, overLimit("n", req.N, maxBurstN)
	}
	// The tenant's governors, then the admission gate, one slot per
	// invocation: a burst over either sheds with a typed 429 before it
	// reaches the simulation (core.Pipeline).
	id := ""
	if r.acct != nil {
		id = r.acct.ID
	}
	pass, err := s.pipeline.Admit(id, spec.ID, req.N)
	if err != nil {
		return nil, admitToAPIError(spec.Name, err)
	}
	if gate := s.gate; gate != nil {
		// Batched routing under pressure: reuse the last good placement for
		// this function instead of re-running the strategy per request.
		if az, ok := gate.RouteFor(spec.ID, time.Now()); ok {
			if pinned, perr := router.Build(router.StrategySpec{Name: "baseline", AZ: az}); perr == nil {
				strat = pinned
			}
		}
	}
	var res router.BurstResult
	err = s.Exec(func(p *sim.Proc) error {
		// Explicitly addressed zones are validated up front: a typo'd AZ or
		// candidate is the caller's 404, not an upstream 502.
		for _, az := range append([]string{req.AZ}, req.Candidates...) {
			if az == "" {
				continue
			}
			if _, ok := s.rt.Cloud().AZ(az); !ok {
				return fmt.Errorf("%w: %q", cloudsim.ErrNoSuchAZ, az)
			}
		}
		got, err := s.rt.Run(p, router.BurstSpec{
			Strategy:   strat,
			Workload:   spec.ID,
			N:          req.N,
			Candidates: req.Candidates,
		})
		res = got
		return err
	})
	s.pipeline.Finish(pass, res.MeanRunMS(), err == nil && res.Completed > 0, res.CostUSD)
	if err != nil {
		return nil, errFromExec(err)
	}
	if s.gate != nil && res.AZ != "" {
		s.gate.RememberRoute(spec.ID, res.AZ, time.Now())
	}
	perCPU := make(map[string]int, len(res.PerCPU))
	for k, n := range res.PerCPU {
		perCPU[k.String()] = n
	}
	return burstJS{
		Strategy:  res.Strategy,
		Workload:  res.Workload.String(),
		AZ:        res.AZ,
		Completed: res.Completed,
		Attempts:  res.Attempts,
		Declined:  res.Declined,
		Failed:    res.Failed,
		RetryFrac: res.RetryFrac(),
		MeanRunMS: res.MeanRunMS(),
		CostUSD:   res.CostUSD,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
		PerCPU:    perCPU,
	}, nil
}

// admitToAPIError maps a pipeline rejection of a burst of fn onto the
// envelope: each governor's typed shed is a 429.
func admitToAPIError(fn string, err error) *apiError {
	var le *tenant.LimitError
	var shed *admission.ShedError
	switch {
	case errors.As(err, &le):
		return limitToAPIError(le)
	case errors.As(err, &shed):
		return shedToAPIError(fn, shed)
	default:
		// tenant.ErrUnknown: the account vanished between authorize and
		// here (concurrent DELETE).
		return apiErrf(http.StatusForbidden, "bad_key", "%v", err)
	}
}

// limitToAPIError converts a per-tenant governor rejection into the
// envelope: 429, code = the shed reason, detail = the tenant's load/budget
// picture.
func limitToAPIError(le *tenant.LimitError) *apiError {
	e := apiErrf(http.StatusTooManyRequests, string(le.Reason), "%v", le)
	e.retryAfter = le.RetryAfter
	e.detail = map[string]any{
		"tenant":     le.Tenant,
		"inflight":   le.Inflight,
		"quotaSlots": le.QuotaSlots,
		"balanceUSD": le.BalanceUSD,
	}
	return e
}

// shedDetailJS is the detail payload of an admission-shed envelope.
type shedDetailJS struct {
	Workload     string  `json:"workload"`
	RetryAfterMS float64 `json:"retryAfterMS"`
	Inflight     int     `json:"inflight"`
	Limit        int     `json:"limit"`
	Utilization  float64 `json:"utilization"`
}

// shedToAPIError converts a global-gate rejection into the envelope: 429,
// code "overloaded", Retry-After header and retryAfterMS from the
// controller's hint, detail carrying the gate telemetry.
func shedToAPIError(fn string, shed *admission.ShedError) *apiError {
	e := apiErrf(http.StatusTooManyRequests, "overloaded", "%v", shed)
	e.retryAfter = shed.RetryAfter
	e.detail = shedDetailJS{
		Workload:     fn,
		RetryAfterMS: float64(shed.RetryAfter.Milliseconds()),
		Inflight:     shed.Inflight,
		Limit:        shed.Limit,
		Utilization:  shed.Utilization,
	}
	return e
}

func (s *Server) handleWorkloads(ctx context.Context, r *apiReq) (any, *apiError) {
	type wlJS struct {
		Name        string  `json:"name"`
		VCPUs       float64 `json:"vcpus"`
		Description string  `json:"description"`
	}
	out := make([]wlJS, 0, 12)
	for _, spec := range workload.All() {
		out = append(out, wlJS{Name: spec.Name, VCPUs: spec.VCPUs, Description: spec.Description})
	}
	return map[string]any{"workloads": out}, nil
}
