// Package skyd is the sky middleware's control plane: an HTTP server over a
// live (real-time paced) sky runtime. It is what an operator deployment of
// the paper's system looks like — characterize zones, inspect the learned
// performance model, and route bursts, all over JSON.
//
// Concurrency model: the simulation kernel is single-threaded by design, so
// the server runs it on one dedicated goroutine and bridges HTTP handlers
// in through a command channel that the paced loop (sim.Env.RunPaced)
// itself receives from: a command interrupts the loop's wait, is stamped
// with the virtual instant the wall clock implies, and starts as a
// cooperative process; handlers block on a reply channel. No handler ever
// touches the simulation directly.
package skyd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/core"
	"skyfaas/internal/metrics"
	"skyfaas/internal/refresh"
	"skyfaas/internal/sim"
	"skyfaas/internal/tenant"
	"skyfaas/internal/warmpool"
	"skyfaas/internal/workload"
)

// ErrClosed is returned for commands submitted after Close.
var ErrClosed = errors.New("skyd: server closed")

// warmPoolWorkload is the workload whose admission service-time estimate
// sizes the warm pools: Sha1Hash, the catalog's lightest request-shaped
// workload.
const warmPoolWorkload = workload.Sha1Hash

// Config assembles a Server.
type Config struct {
	// Runtime is the assembled sky runtime to serve (required). /metrics
	// serves its registry, which the HTTP layer reports into too, so one
	// scrape covers the HTTP layer, the router, and the simulated cloud.
	Runtime *core.Runtime
	// Speedup is the virtual-to-wall time ratio (default 1000: one
	// virtual second per wall millisecond).
	Speedup float64
	// PumpEvery is ignored: commands are injected on arrival. The
	// benchmark's served probe still sets it, so it stays until bench/
	// stops setting it.
	PumpEvery time.Duration
	// Refresh and WarmPool, when non-nil, enable the characterization-
	// maintenance and pre-warming control loops on the runtime, start them
	// with the server and stop them on Close; /v1/refresh and /v1/warmpool
	// inspect and steer them. Nil leaves an endpoint answering 409.
	Refresh  *refresh.Config
	WarmPool *warmpool.Config
	// Admission, when non-nil, enables the overload-control gate on the
	// runtime: burst requests past estimated capacity answer 429 with
	// Retry-After, and /v1/admission inspects and retunes the gate. Nil
	// leaves the endpoints answering 409.
	Admission *admission.Config
	// Tenants, when non-nil, turns authentication on: every /v1 endpoint
	// except /v1/healthz requires an API key resolving to a registered
	// tenant, per-tenant quota/budget governors run in front of the global
	// admission gate, and the /v1/tenants surface administers the registry.
	// Nil is auth-off mode — the full surface stays open and untenanted,
	// preserving zero-config behavior.
	Tenants *tenant.Registry
}

// Server bridges HTTP onto a paced simulation.
type Server struct {
	rt         *core.Runtime
	speedup    float64
	queueDepth *metrics.Gauge
	pacedLag   *metrics.Gauge
	effSpeedup *metrics.Gauge
	simPending *metrics.Gauge

	// loops are the control loops this server started; Close must stop
	// them or their self-rescheduling ticks would keep the event queue
	// alive forever.
	loops []interface{ Stop() }

	// gate is the overload-control layer in the burst path (nil when
	// admission is disabled). It needs no lifecycle management: it holds no
	// events, only mutex-guarded state.
	gate *admission.Controller

	// tenants is the account registry (nil in auth-off mode). Like the
	// gate it is mutex-guarded state with no lifecycle of its own.
	tenants *tenant.Registry

	// pipeline is the burst path over tenants and gate, on the wall clock.
	pipeline *core.Pipeline

	mux *http.ServeMux
	// cmds carries commands to the paced loop. It is buffered so handlers
	// arriving together enqueue without each waiting for the loop's next
	// pass; past 64 a sender simply blocks until its turn.
	cmds chan func()

	mu sync.Mutex
	// closed records that Close began; guarded by mu.
	closed bool
	done   chan struct{}
}

// New builds and starts a server (the simulation goroutine begins
// immediately; call Close to stop it).
func New(cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("skyd: nil runtime")
	}
	if cfg.Speedup == 0 {
		cfg.Speedup = 1000
	}
	s := &Server{
		rt:      cfg.Runtime,
		speedup: cfg.Speedup,
		mux:     http.NewServeMux(),
		cmds:    make(chan func(), 64),
		done:    make(chan struct{}),
		tenants: cfg.Tenants,
	}
	reg := cfg.Runtime.Metrics()
	s.queueDepth = reg.Gauge("sky_skyd_cmd_queue_depth",
		"commands enqueued for the simulation goroutine but not yet started")
	s.pacedLag = reg.Gauge("sky_skyd_paced_lag_ms",
		"how far the paced loop ran behind its wall-clock schedule at its last wait (0 = on time)")
	s.effSpeedup = reg.Gauge("sky_skyd_effective_speedup",
		"virtual seconds per wall second between the paced loop's last two waits")
	s.simPending = reg.Gauge("sky_skyd_sim_pending",
		"events in the simulation's queue at the paced loop's last wait, a keep-alive lane counting as one")
	// Arm the maintenance loop before the simulation goroutine starts: the
	// environment is not yet running, so scheduling its first tick here is
	// single-threaded and safe.
	if cfg.Refresh != nil {
		m, err := cfg.Runtime.EnableRefresh(*cfg.Refresh)
		if err != nil {
			return nil, err
		}
		m.Start()
		s.loops = append(s.loops, m)
	}
	if cfg.WarmPool != nil {
		m, err := cfg.Runtime.EnableWarmPool(*cfg.WarmPool, warmPoolWorkload)
		if err != nil {
			return nil, err
		}
		m.Start()
		s.loops = append(s.loops, m)
	}
	if cfg.Admission != nil {
		gate, err := cfg.Runtime.EnableAdmission(*cfg.Admission)
		if err != nil {
			return nil, err
		}
		s.gate = gate
	}
	s.pipeline = core.NewPipeline(s.tenants, s.gate, time.Now)
	s.routes()
	go s.loop()
	return s, nil
}

// loop owns the simulation: it paces virtual time against the wall clock
// and takes commands as they arrive, until Close.
func (s *Server) loop() {
	defer close(s.done)
	// The pacing error is unreachable for positive speedups; a failure
	// inside the model surfaces through the pending command replies.
	_ = s.rt.Env().RunPaced(s.speedup, s.cmds, func(lag time.Duration, effective float64) {
		s.pacedLag.Set(float64(lag) / float64(time.Millisecond))
		s.effSpeedup.Set(effective)
		s.simPending.Set(float64(s.rt.Env().Pending()))
	})
}

// Exec runs fn as a simulation process and blocks until it finishes.
func (s *Server) Exec(fn func(p *sim.Proc) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()
	reply := make(chan error, 1)
	// Inc before the send so the loop's matching Dec can never land first
	// and leave the gauge transiently negative.
	s.queueDepth.Inc()
	select {
	case s.cmds <- func() {
		s.queueDepth.Dec()
		s.rt.Env().Go("skyd-cmd", func(p *sim.Proc) error {
			reply <- fn(p)
			return nil
		})
	}:
	case <-s.done:
		s.queueDepth.Dec()
		return ErrClosed
	}
	select {
	case err := <-reply:
		return err
	case <-s.done:
		return ErrClosed
	}
}

// Close stops accepting commands, lets in-flight work drain, and waits for
// the simulation goroutine to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	// Stop the control loops first (atomic flag, safe cross-thread):
	// RunPaced only returns once the event queue drains, and a live
	// self-rescheduling tick would keep it full forever.
	for _, l := range s.loops {
		l.Stop()
	}
	// Wake the paced loop out of its wait and have it stop pacing and
	// taking commands: what is queued — in-flight bursts, and the cloud's
	// pre-scheduled drift timeline (HorizonDays of events) — still runs to
	// completion, at full speed, and then RunPaced returns.
	s.rt.Env().FinishFast()
	s.mu.Unlock()
	<-s.done
}

// Runtime exposes the underlying runtime (read-only use outside Exec).
func (s *Server) Runtime() *core.Runtime { return s.rt }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ---------------------------------------------------------------------------
// HTTP plumbing

// httpBuckets extends the default layout downward: handlers answering from
// warm state finish in well under a millisecond of wall time.
var httpBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
