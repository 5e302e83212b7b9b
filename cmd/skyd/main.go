// Command skyd serves the sky middleware control plane over HTTP: a live
// (real-time paced) sky runtime you can characterize, profile, and route
// against with curl.
//
//	skyd -addr :8080 -speedup 1000 &
//	curl localhost:8080/v1/zones
//	curl -XPOST localhost:8080/v1/characterize -d '{"az":"us-west-1a","polls":6}'
//	curl -XPOST localhost:8080/v1/profile -d '{"workload":"zipper","zones":["us-west-1a"],"runs":300}'
//	curl -XPOST localhost:8080/v1/burst -d '{"strategy":"hybrid","workload":"zipper","n":200,"candidates":["us-west-1a","sa-east-1a"]}'
//	curl localhost:8080/healthz      # liveness: is the sim goroutine taking commands?
//	curl localhost:8080/metrics      # Prometheus text exposition
//	curl localhost:8080/metrics.json # same snapshot as JSON
//
// With -warmpool, a budget-governed pre-warming loop keeps each zone's
// warm pool sized to its forecast arrival rate:
//
//	skyd -addr :8080 -warmpool predictive &
//	curl localhost:8080/v1/warmpool
//	curl -XPOST localhost:8080/v1/warmpool -d '{"mode":"pinned","budget":{"ratePerHour":0.5,"capUSD":1}}'
//
// With -tenants, every /v1 endpoint requires an API key and tenant quotas
// and budgets govern /v1/burst:
//
//	skyd -addr :8080 -tenants fixture &
//	curl -H 'Authorization: Bearer sk-ops-0001' localhost:8080/v1/tenants
//	curl -H 'Authorization: Bearer sk-acme-7f3a' localhost:8080/v1/tenants/acme/usage
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/core"
	"skyfaas/internal/metrics"
	"skyfaas/internal/refresh"
	"skyfaas/internal/skyd"
	"skyfaas/internal/tenant"
	"skyfaas/internal/warmpool"
)

// loadTenants builds the registry from the -tenants flag value: the literal
// "fixture" loads the built-in deterministic accounts, anything else is a
// path to a JSON array of tenants (see tenant.Load for the schema).
func loadTenants(src string, m *metrics.Registry) (*tenant.Registry, error) {
	var accounts []tenant.Tenant
	if src == "fixture" {
		accounts = tenant.Fixture()
	} else {
		f, err := os.Open(src)
		if err != nil {
			return nil, fmt.Errorf("tenants: %w", err)
		}
		accounts, err = tenant.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("tenants: %s: %w", src, err)
		}
	}
	reg := tenant.NewRegistry(tenant.Config{Metrics: m})
	now := time.Now()
	for _, t := range accounts {
		if err := reg.Create(t, now); err != nil {
			return nil, fmt.Errorf("tenants: %w", err)
		}
	}
	return reg, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "skyd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("skyd", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	seed := fs.Uint64("seed", 42, "simulation seed")
	speedup := fs.Float64("speedup", 1000, "virtual seconds per wall second: the event at virtual time t is due at start + t/speedup, and lateness is repaid, so the ratio holds (gauge sky_skyd_effective_speedup)")
	fullMesh := fs.Bool("full-mesh", false, "deploy the full 698-endpoint mesh (slower startup)")
	refreshMode := fs.String("refresh", "", "characterization maintenance mode: off, age, or drift (empty = disabled)")
	refreshRate := fs.Float64("refresh-budget-rate", 0, "refresh budget refill, USD per virtual hour (0 = default)")
	refreshCap := fs.Float64("refresh-budget-cap", 0, "refresh budget ceiling, USD (0 = default)")
	warmMode := fs.String("warmpool", "", "warm-pool policy: off, pinned, reactive, or predictive (empty = disabled)")
	warmRate := fs.Float64("warmpool-budget-rate", 0, "warm-pool budget refill, USD per virtual hour (0 = default)")
	warmCap := fs.Float64("warmpool-budget-cap", 0, "warm-pool budget ceiling, USD (0 = default)")
	admit := fs.Bool("admission", false, "enable the overload-control gate (sheds with 429 past estimated capacity)")
	admitSlots := fs.Int("admission-slots", 0, "admission slot count (0 = platform quota minus headroom)")
	admitUtil := fs.Float64("admission-target-util", 0, "admitted-concurrency ceiling as a fraction of slots (0 = default 0.9)")
	tenants := fs.String("tenants", "", `tenant accounts: "fixture" for the built-in trio, or a path to a JSON tenant file (empty = auth off)`)
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "how long to let in-flight requests drain on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rt, err := core.New(core.Config{Seed: *seed, SkipMesh: !*fullMesh})
	if err != nil {
		return err
	}
	skydCfg := skyd.Config{Runtime: rt, Speedup: *speedup}
	if *refreshMode != "" {
		// Drift scoring needs the passive collector routed traffic feeds.
		rt.EnablePassiveCharacterization(0)
		skydCfg.Refresh = &refresh.Config{
			Mode:        refresh.Mode(*refreshMode),
			RatePerHour: *refreshRate,
			Cap:         *refreshCap,
		}
	}
	if *warmMode != "" {
		if !warmpool.ValidMode(warmpool.Mode(*warmMode)) {
			return fmt.Errorf("unknown warm-pool mode %q (valid: %v)", *warmMode, warmpool.Modes())
		}
		skydCfg.WarmPool = &warmpool.Config{
			Mode:        warmpool.Mode(*warmMode),
			RatePerHour: *warmRate,
			Cap:         *warmCap,
		}
	}
	if *admit {
		skydCfg.Admission = &admission.Config{
			Slots:      *admitSlots,
			TargetUtil: *admitUtil,
		}
	}
	if *tenants != "" {
		reg, err := loadTenants(*tenants, rt.Metrics())
		if err != nil {
			return err
		}
		skydCfg.Tenants = reg
		log.Printf("tenant auth enabled: %d accounts from %s; /v1 now requires Authorization: Bearer <key>", reg.Len(), *tenants)
	}
	server, err := skyd.New(skydCfg)
	if err != nil {
		return err
	}
	defer server.Close()

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           server,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	log.Printf("skyd listening on %s (seed %d, %gx pacing); /metrics, /metrics.json, /healthz live", *addr, *seed, *speedup)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case s := <-sig:
		// Graceful drain, strictly ordered: stop the listener and wait out
		// in-flight requests first (they round-trip through the simulation,
		// so the sim goroutine and any refresh loop must still be running),
		// then the deferred server.Close stops the refresh tick and the
		// simulation itself.
		log.Printf("received %v, draining in-flight requests (up to %v)", s, *shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := httpServer.Shutdown(ctx); err != nil {
			// Deadline exceeded: report it, but still close the simulation
			// cleanly via the defer.
			return fmt.Errorf("shutdown: %w", err)
		}
		// Shutdown returned, so ListenAndServe has ended with
		// ErrServerClosed; collect it so the goroutine is done before the
		// simulation stops.
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
