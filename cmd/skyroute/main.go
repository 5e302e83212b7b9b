// Command skyroute drives one workload through every routing strategy and
// prints the cost comparison — a one-shot view of the paper's EX-5.
//
// Usage:
//
//	skyroute -workload zipper -n 500
//	skyroute -workload logistic_regression -zones us-west-1a,us-west-1b,sa-east-1a
//
// By default the comparison runs an in-process simulation; -url points it
// at a running skyd instead, with -key (or SKY_API_KEY) authenticating
// against an auth-enabled instance:
//
//	skyroute -url http://localhost:8080 -key sk-acme-7f3a -workload zipper -n 200
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"skyfaas/internal/core"
	"skyfaas/internal/geo"
	"skyfaas/internal/router"
	"skyfaas/internal/sim"
	"skyfaas/internal/skyapi"
	"skyfaas/internal/tablefmt"
	"skyfaas/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "skyroute:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("skyroute", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	wlName := fs.String("workload", "zipper", "Table-1 workload name")
	n := fs.Int("n", 500, "invocations per burst")
	seed := fs.Uint64("seed", 42, "simulation seed")
	zonesFlag := fs.String("zones", "us-west-1a,us-west-1b,sa-east-1a", "candidate zones (first = fixed baseline zone)")
	profileRuns := fs.Int("profile-runs", 1200, "profiling executions per zone")
	refreshPolls := fs.Int("refresh-polls", 6, "characterization polls per zone")
	client := fs.String("client", "", "client city (seattle, london, tokyo, ...): adds latency-bound and cost-aware strategies")
	maxRTT := fs.Duration("max-rtt", 120*time.Millisecond, "latency bound for the -client strategy")
	dumpMetrics := fs.Bool("metrics", false, "dump a Prometheus-text metrics snapshot after the run")
	url := fs.String("url", "", "drive a running skyd at this base URL instead of an in-process simulation")
	key := fs.String("key", skyapi.KeyFromEnv(), "tenant API key for an auth-enabled skyd (default $SKY_API_KEY; only used with -url)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *n <= 0:
		return fmt.Errorf("-n %d: must be positive", *n)
	case *refreshPolls <= 0:
		return fmt.Errorf("-refresh-polls %d: must be positive", *refreshPolls)
	case *profileRuns < 0:
		return fmt.Errorf("-profile-runs %d: may not be negative", *profileRuns)
	}
	spec, ok := workload.ByName(*wlName)
	if !ok {
		names := make([]string, 0, 12)
		for _, s := range workload.All() {
			names = append(names, s.Name)
		}
		return fmt.Errorf("unknown workload %q; choose from: %s", *wlName, strings.Join(names, ", "))
	}
	var clientLoc geo.Coord
	if *client != "" {
		loc, ok := geo.City(*client)
		if !ok {
			return fmt.Errorf("unknown city %q", *client)
		}
		clientLoc = loc
	}
	var zones []string
	for _, z := range strings.Split(*zonesFlag, ",") {
		if z = strings.TrimSpace(z); z != "" {
			zones = append(zones, z)
		}
	}
	if len(zones) == 0 {
		return fmt.Errorf("no zones given")
	}
	specs := strategySpecs(zones[0], *client, clientLoc, *maxRTT)

	if *url != "" {
		// Remote mode: the running skyd owns the simulation; unknown zones
		// come back as 404 unknown_az from the server instead of the local
		// catalog check below.
		return runRemote(*url, *key, spec, zones, specs, *n, *profileRuns, *refreshPolls)
	}

	rt, err := core.New(core.Config{Seed: *seed, SkipMesh: true})
	if err != nil {
		return err
	}
	for _, z := range zones {
		if _, ok := rt.Cloud().AZ(z); !ok {
			return fmt.Errorf("unknown AZ %q", z)
		}
	}

	err = rt.Do(func(p *sim.Proc) error {
		fmt.Printf("characterizing %d zones (%d polls each)...\n", len(zones), *refreshPolls)
		sampleCost, err := rt.Refresh(p, zones, *refreshPolls)
		if err != nil {
			return err
		}
		for _, z := range zones {
			if ch, ok := rt.Store().Get(z, rt.Env().Now()); ok {
				fmt.Printf("  %-16s %s\n", z, ch.Dist())
			}
		}
		fmt.Printf("profiling %s (%d runs per zone)...\n", spec.Name, *profileRuns)
		profCost, err := rt.ProfileWorkloads(p, []workload.ID{spec.ID}, zones, *profileRuns)
		if err != nil {
			return err
		}

		strategies := make([]router.Strategy, 0, len(specs))
		for _, sp := range specs {
			s, err := router.Build(sp,
				router.WithLocator(router.NewZoneLocator(rt.Cloud())),
				router.WithPricer(router.NewZonePricer(rt.Cloud())))
			if err != nil {
				return err
			}
			strategies = append(strategies, s)
		}
		t := tablefmt.New("strategy", "zone", "cost", "vs baseline", "meanMS", "retried", "elapsed")
		var baseCost float64
		for _, s := range strategies {
			res, err := rt.Run(p, router.BurstSpec{
				Strategy:   s,
				Workload:   spec.ID,
				N:          *n,
				Candidates: zones,
			})
			if err != nil {
				return err
			}
			if s.Name() == "baseline" {
				baseCost = res.CostUSD
			}
			vs := "-"
			if baseCost > 0 && s.Name() != "baseline" {
				vs = tablefmt.Pct(1 - res.CostUSD/baseCost)
			}
			t.Row(s.Name(), res.AZ, tablefmt.USD(res.CostUSD), vs,
				fmt.Sprintf("%.0f", res.MeanRunMS()), tablefmt.Pct(res.RetryFrac()),
				res.Elapsed.Truncate(1e7).String())
			// Space bursts out so warm instances expire between strategies.
			p.Sleep(rt.Cloud().Options().KeepAlive + 1e9)
		}
		fmt.Printf("\n%s burst of %d on zones %v\n%s", spec.Name, *n, zones, t.String())
		fmt.Printf("\nsampling spend %s, profiling spend %s\n", tablefmt.USD(sampleCost), tablefmt.USD(profCost))
		return nil
	})
	if err != nil {
		return err
	}
	if *dumpMetrics {
		fmt.Println("\n==== metrics snapshot ====")
		if err := rt.Metrics().WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// strategySpecs is the comparison lineup, shared by the in-process and
// remote paths: the fixed-zone baselines pin to the first zone, and a
// -client city adds the latency-bound and cost-aware arms.
func strategySpecs(fixed, client string, clientLoc geo.Coord, maxRTT time.Duration) []router.StrategySpec {
	specs := []router.StrategySpec{
		{Name: "baseline", AZ: fixed},
		{Name: "regional"},
		{Name: "retry-slow", AZ: fixed},
		{Name: "focus-fastest", AZ: fixed},
		{Name: "hybrid"},
	}
	if client != "" {
		specs = append(specs,
			router.StrategySpec{Name: "latency-bound", Params: map[string]float64{
				"maxRTTMS":  float64(maxRTT) / float64(time.Millisecond),
				"clientLat": clientLoc.Lat,
				"clientLon": clientLoc.Lon,
			}},
			router.StrategySpec{Name: "cost-aware"},
		)
	}
	return specs
}

// runRemote replays the same characterize → profile → burst sequence
// against a running skyd over its /v1 API, one burst per strategy.
func runRemote(base, key string, spec workload.Spec, zones []string, specs []router.StrategySpec, n, profileRuns, refreshPolls int) error {
	c := skyapi.New(base, key)
	fmt.Printf("characterizing %d zones (%d polls each) via %s...\n", len(zones), refreshPolls, base)
	var sampleCost float64
	for _, z := range zones {
		var ch struct {
			CostUSD float64            `json:"costUSD"`
			Dist    map[string]float64 `json:"dist"`
		}
		if err := c.Post("/v1/characterize", map[string]any{"az": z, "polls": refreshPolls}, &ch); err != nil {
			return err
		}
		sampleCost += ch.CostUSD
		fmt.Printf("  %-16s %s\n", z, fmtDist(ch.Dist))
	}
	fmt.Printf("profiling %s (%d runs per zone)...\n", spec.Name, profileRuns)
	var prof struct {
		CostUSD float64 `json:"costUSD"`
	}
	if err := c.Post("/v1/profile", map[string]any{"workload": spec.Name, "zones": zones, "runs": profileRuns}, &prof); err != nil {
		return err
	}

	t := tablefmt.New("strategy", "zone", "cost", "vs baseline", "meanMS", "retried", "elapsed")
	var baseCost float64
	for _, sp := range specs {
		body := map[string]any{"strategy": sp.Name, "workload": spec.Name, "n": n, "candidates": zones}
		if sp.AZ != "" {
			body["az"] = sp.AZ
		}
		if len(sp.Params) > 0 {
			body["params"] = sp.Params
		}
		var res struct {
			AZ        string  `json:"az"`
			CostUSD   float64 `json:"costUSD"`
			MeanRunMS float64 `json:"meanRunMS"`
			RetryFrac float64 `json:"retryFrac"`
			ElapsedMS float64 `json:"elapsedMS"`
		}
		if err := c.Post("/v1/burst", body, &res); err != nil {
			return err
		}
		if sp.Name == "baseline" {
			baseCost = res.CostUSD
		}
		vs := "-"
		if baseCost > 0 && sp.Name != "baseline" {
			vs = tablefmt.Pct(1 - res.CostUSD/baseCost)
		}
		elapsed := time.Duration(res.ElapsedMS * float64(time.Millisecond))
		t.Row(sp.Name, res.AZ, tablefmt.USD(res.CostUSD), vs,
			fmt.Sprintf("%.0f", res.MeanRunMS), tablefmt.Pct(res.RetryFrac),
			elapsed.Truncate(1e7).String())
	}
	fmt.Printf("\n%s burst of %d on zones %v\n%s", spec.Name, n, zones, t.String())
	fmt.Printf("\nsampling spend %s, profiling spend %s\n", tablefmt.USD(sampleCost), tablefmt.USD(prof.CostUSD))
	return nil
}

// fmtDist renders a wire-form CPU share map largest-first, matching the
// in-process characterization stringer closely enough for eyeballing.
func fmtDist(dist map[string]float64) string {
	keys := make([]string, 0, len(dist))
	for k := range dist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if dist[keys[i]] != dist[keys[j]] {
			return dist[keys[i]] > dist[keys[j]]
		}
		return keys[i] < keys[j]
	})
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %.0f%%", k, dist[k]*100)
	}
	return strings.Join(parts, ", ")
}
