package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/mesh"
	"skyfaas/internal/rng"
	"skyfaas/internal/sim"
	"skyfaas/internal/tablefmt"
)

// EX-9 — engine throughput. The paper's mesh is 41 regions and ~1,600
// deployments (§3.3); replaying paper-scale invocation volumes against it is
// only practical if the simulator itself is fast. EX-9 drives a
// geo-distributed open-loop load through the full mesh, reports wall-clock
// invocations per second, and checksums every response so a run can be
// compared with any other of the same seed.

// EX9Config parameterizes EX-9.
type EX9Config struct {
	Seed    uint64
	reduced bool
}

// Reduced returns c at benchmark scale.
func (c EX9Config) Reduced() EX9Config { c.reduced = true; return c }

// ex9Preset is one scale of EX-9: the total simulated invocation count and
// the concurrent invocation chains per zone.
type ex9Preset struct{ invocations, workers int }

var (
	ex9Full    = ex9Preset{invocations: 400000, workers: 4}
	ex9Reduced = ex9Preset{invocations: 30000, workers: 2}
)

// EX9Result is one mesh-load run's measurement.
type EX9Result struct {
	Zones       int
	Deployments int
	// Invocations is the completed invocation count.
	Invocations int
	// WallSeconds is real (not simulated) execution time.
	WallSeconds float64
	// InvPerSec is Invocations / WallSeconds.
	InvPerSec float64
	// Checksum folds every response; equal seeds give equal checksums.
	Checksum uint64
}

// Render produces the EX-9 table.
func (r EX9Result) Render() string {
	t := tablefmt.New("Zones", "Deployments", "Invocations", "Wall s", "Inv/s", "Checksum")
	t.Row(r.Zones, r.Deployments, r.Invocations,
		fmt.Sprintf("%.2f", r.WallSeconds),
		fmt.Sprintf("%.0f", r.InvPerSec),
		fmt.Sprintf("%016x", r.Checksum))
	return "EX-9 — engine throughput on the mesh load\n" + t.String()
}

// WriteCSV writes the throughput table as one dataset.
func (r EX9Result) WriteCSV(dir string) error {
	t := tablefmt.New("zones", "deployments", "invocations", "wall_s", "inv_per_s", "checksum")
	t.Row(r.Zones, r.Deployments, r.Invocations, r.WallSeconds, r.InvPerSec,
		fmt.Sprintf("%016x", r.Checksum))
	return writeCSVFile(dir, "ex9_scalability.csv", t)
}

// RunEX9 measures the engine on the mesh load.
func RunEX9(c EX9Config) (EX9Result, error) {
	cfg := scaled(c.reduced, ex9Full, ex9Reduced)
	stats, err := RunMeshLoad(MeshLoadConfig{
		Seed:        c.Seed,
		Invocations: cfg.invocations,
		Workers:     cfg.workers,
	})
	if err != nil {
		return EX9Result{}, fmt.Errorf("ex9: %w", err)
	}
	res := EX9Result{
		Zones:       stats.Zones,
		Deployments: stats.Deployments,
		Invocations: stats.Invocations,
		WallSeconds: stats.Wall.Seconds(),
		Checksum:    stats.Checksum,
	}
	if res.WallSeconds > 0 {
		res.InvPerSec = float64(res.Invocations) / res.WallSeconds
	}
	return res, nil
}

// ---------------------------------------------------------------------------

// MeshLoadConfig drives the raw-scale load shared by EX-9, the benchmark's
// cloudsim probe and TestMeshLoadAllocs: the full default catalog, the full
// deployment mesh, open-loop invocation chains in every zone, and a slice of
// cross-region traffic.
type MeshLoadConfig struct {
	Seed uint64
	// Shards is ignored: the simulator has one engine. The benchmark's
	// probes still set it, so it stays until bench/ stops setting it.
	Shards int
	// Invocations is the total invocation budget across all zones.
	Invocations int
	// Workers is the number of concurrent chains per zone (default 8).
	Workers int
}

// meshCrossEvery makes every Nth chain step target a zone in another
// region (~5% of the load).
const meshCrossEvery = 20

// MeshLoadStats is a load run's outcome. Wall is measured around the
// simulation run only (world construction excluded).
type MeshLoadStats struct {
	Invocations int
	Zones       int
	Deployments int
	Checksum    uint64
	Wall        time.Duration
}

// meshChain is one zone's traffic accumulator.
type meshChain struct {
	az       string
	function string
	// partner is the cross-region target (an endpoint in the next
	// catalog region).
	partnerAZ string
	partnerFn string
	rand      *rng.Stream
	checksum  uint64
	completed int
}

// RunMeshLoad builds the 41-region world and runs the load to completion.
// Equal seeds give equal checksums.
func RunMeshLoad(cfg MeshLoadConfig) (MeshLoadStats, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	// The load world's intra-cloud RTT of 8 ms is part of its definition:
	// every request's network legs, and so the checksum, depend on it.
	env := sim.NewEnv(defaultEpoch)
	opts := cloudsim.Options{HorizonDays: 2, IntraCloudRTT: 8 * time.Millisecond}
	cloud := cloudsim.New(env, cfg.Seed, cloudsim.DefaultCatalog(), opts)
	m, err := mesh.Build(cloud, mesh.Config{})
	if err != nil {
		return MeshLoadStats{}, err
	}

	// One chain descriptor per zone, each bound to an endpoint there.
	const memoryMB = 1024
	root := rng.New(cfg.Seed).Split("ex9")
	var chains []*meshChain
	for _, region := range cloud.Regions() {
		for _, az := range region.AZs() {
			ep, ok := m.Nearest(az.Name(), memoryMB, cpu.X86)
			if !ok {
				continue
			}
			chains = append(chains, &meshChain{
				az:       az.Name(),
				function: ep.Function,
				rand:     root.Split(az.Name()),
			})
		}
	}
	sort.Slice(chains, func(i, j int) bool { return chains[i].az < chains[j].az })
	if len(chains) == 0 {
		return MeshLoadStats{}, fmt.Errorf("meshload: no endpoints")
	}
	// Cross-region partner: the zone one third of the list away, which is
	// nearly always in a different region.
	for i, ch := range chains {
		p := chains[(i+len(chains)/3)%len(chains)]
		ch.partnerAZ, ch.partnerFn = p.az, p.function
	}

	// Split the invocation budget across zones and workers.
	perZone := cfg.Invocations / len(chains)
	extra := cfg.Invocations % len(chains)
	for i, ch := range chains {
		n := perZone
		if i < extra {
			n++
		}
		startZoneLoad(cloud, ch, cfg.Workers, n)
	}

	start := time.Now() //lint:allow nodeterm -- EX-9 measures real engine throughput
	if err := env.Run(); err != nil {
		return MeshLoadStats{}, err
	}
	wall := time.Since(start) //lint:allow nodeterm -- EX-9 measures real engine throughput

	stats := MeshLoadStats{
		Zones:       len(chains),
		Deployments: m.Size(),
		Checksum:    fnvOffset,
		Wall:        wall,
	}
	// Zones are folded in sorted order; each zone's checksum was built in
	// event order.
	for _, ch := range chains {
		stats.Invocations += ch.completed
		stats.Checksum = stats.Checksum*fnvPrime ^ ch.checksum
	}
	return stats, nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// startZoneLoad launches the zone's worker chains: self-sustaining
// invocation loops that keep n invocations flowing with a jittered
// inter-arrival gap, every meshCrossEvery'th step to the zone's partner.
func startZoneLoad(cloud *cloudsim.Cloud, ch *meshChain, workers, n int) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	env := cloud.Env()
	remaining := n
	var step func(w int)
	step = func(w int) {
		if remaining <= 0 {
			return
		}
		remaining--
		seq := n - remaining
		target, fn := ch.az, ch.function
		if seq%meshCrossEvery == 0 {
			target, fn = ch.partnerAZ, ch.partnerFn
		}
		zone := target // never reassigned, so the callback captures a copy
		cloud.StartInvoke(cloudsim.Request{
			Account:  "ex9",
			AZ:       target,
			Function: fn,
			Work:     cloudsim.SleepBehavior{D: 15 * time.Millisecond},
		}, func(resp cloudsim.Response) {
			// Fold the response: FNV-1a over the identifying fields keeps the
			// checksum sensitive to placement, billing, and timing alike.
			// Hand-rolled (no fmt, no hash.Hash) — this runs once per
			// invocation and must stay off the allocator, so the instance's
			// name is spelled into a stack buffer.
			h := uint64(fnvOffset)
			if n := resp.Profile.Instance; n != 0 {
				var buf [64]byte
				for _, c := range cloudsim.AppendInstanceID(buf[:0], zone, n) {
					h = (h ^ uint64(c)) * fnvPrime
				}
			}
			h = (h ^ uint64(resp.CPU)) * fnvPrime
			if resp.Cold {
				h = (h ^ 1) * fnvPrime
			}
			h = (h ^ math.Float64bits(resp.BilledMS)) * fnvPrime
			h = (h ^ uint64(env.Now().UnixNano())) * fnvPrime
			ch.checksum = ch.checksum*fnvPrime ^ h
			if resp.OK() {
				ch.completed++
			}
			// Jittered think time: nanosecond-granular so no two zones'
			// events collide on the same instant (which would make event
			// order — and thus replay — depend on tie-breaking).
			gap := 2*time.Millisecond + time.Duration(int64(ch.rand.Intn(int(2*time.Millisecond))))
			env.Schedule(gap, func() { step(w) })
		})
	}
	for w := 0; w < workers; w++ {
		w := w
		// Stagger worker starts with the same jittered stream.
		env.Schedule(time.Duration(ch.rand.Intn(int(5*time.Millisecond)))+time.Duration(w), func() { step(w) })
	}
}
