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

// EX-9 — engine scalability. The paper's mesh is 41 regions and ~1,600
// deployments (§3.3); replaying paper-scale invocation volumes against it is
// only practical if the simulator itself scales. EX-9 drives an identical
// geo-distributed open-loop load through the single-queue engine and the
// sharded engine at several shard counts, reports wall-clock invocations
// per second for each, and checksums every cell's traffic to prove the
// engines computed the same simulation.

// EX9Config parameterizes EX-9.
type EX9Config struct {
	Seed uint64
	// ShardCounts are the engine configurations measured; 1 means the
	// single-queue engine (default 1, 2, 4, 8).
	ShardCounts []int
	// Invocations is the total simulated invocation count per cell
	// (default 400,000).
	Invocations int
	// Workers is the number of concurrent invocation chains per zone
	// (default 4).
	Workers int
}

// Reduced cuts the load for tests and benchmarks.
func (c EX9Config) Reduced() EX9Config {
	c.ShardCounts = []int{1, 2, 4}
	c.Invocations = 30000
	c.Workers = 2
	return c
}

func (c EX9Config) withDefaults() EX9Config {
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 2, 4, 8}
	}
	if c.Invocations == 0 {
		c.Invocations = 400000
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	return c
}

// EX9Cell is one engine configuration's measurement.
type EX9Cell struct {
	// Shards is the engine width (1 = single queue).
	Shards int
	// Invocations is the completed invocation count.
	Invocations int
	// WallSeconds is real (not simulated) execution time.
	WallSeconds float64
	// InvPerSec is Invocations / WallSeconds.
	InvPerSec float64
	// Speedup is InvPerSec over the single-queue cell's.
	Speedup float64
	// Checksum folds every response; equal checksums across cells prove
	// the engines ran the same simulation.
	Checksum uint64
}

// EX9Result is the scalability table.
type EX9Result struct {
	Zones       int
	Deployments int
	Cells       []EX9Cell
}

// Deterministic reports whether every cell produced the same checksum.
func (r EX9Result) Deterministic() bool {
	for _, c := range r.Cells {
		if c.Checksum != r.Cells[0].Checksum {
			return false
		}
	}
	return len(r.Cells) > 0
}

// Cell returns the measurement for the given shard count.
func (r EX9Result) Cell(shards int) (EX9Cell, bool) {
	for _, c := range r.Cells {
		if c.Shards == shards {
			return c, true
		}
	}
	return EX9Cell{}, false
}

// Render produces the EX-9 table.
func (r EX9Result) Render() string {
	t := tablefmt.New("Shards", "Invocations", "Wall s", "Inv/s", "Speedup", "Checksum")
	for _, c := range r.Cells {
		t.Row(c.Shards, c.Invocations,
			fmt.Sprintf("%.2f", c.WallSeconds),
			fmt.Sprintf("%.0f", c.InvPerSec),
			fmt.Sprintf("%.2fx", c.Speedup),
			fmt.Sprintf("%016x", c.Checksum))
	}
	det := "yes"
	if !r.Deterministic() {
		det = "NO — ENGINES DIVERGED"
	}
	return fmt.Sprintf("EX-9 — engine scalability (%d zones, %d deployments)\n%sdeterministic across engines: %s\n",
		r.Zones, r.Deployments, t.String(), det)
}

// WriteCSV writes the scalability table as one dataset.
func (r EX9Result) WriteCSV(dir string) error {
	t := tablefmt.New("shards", "invocations", "wall_s", "inv_per_s", "speedup", "checksum")
	for _, c := range r.Cells {
		t.Row(c.Shards, c.Invocations, c.WallSeconds, c.InvPerSec, c.Speedup,
			fmt.Sprintf("%016x", c.Checksum))
	}
	return writeCSVFile(dir, "ex9_scalability.csv", t)
}

// RunEX9 measures each configured engine on the identical load.
func RunEX9(cfg EX9Config) (EX9Result, error) {
	cfg = cfg.withDefaults()
	var res EX9Result
	for _, shards := range cfg.ShardCounts {
		stats, err := RunMeshLoad(MeshLoadConfig{
			Seed:        cfg.Seed,
			Shards:      shards,
			Invocations: cfg.Invocations,
			Workers:     cfg.Workers,
		})
		if err != nil {
			return EX9Result{}, fmt.Errorf("ex9: shards=%d: %w", shards, err)
		}
		res.Zones = stats.Zones
		res.Deployments = stats.Deployments
		cell := EX9Cell{
			Shards:      shards,
			Invocations: stats.Invocations,
			WallSeconds: stats.Wall.Seconds(),
			Checksum:    stats.Checksum,
		}
		if cell.WallSeconds > 0 {
			cell.InvPerSec = float64(cell.Invocations) / cell.WallSeconds
		}
		if len(res.Cells) == 0 {
			cell.Speedup = 1
		} else if base := res.Cells[0].InvPerSec; base > 0 {
			cell.Speedup = cell.InvPerSec / base
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// ---------------------------------------------------------------------------

// MeshLoadConfig drives the raw-scale load shared by EX-9, the benchmark's
// cloudsim and sharded-ratio probes and TestMeshLoadAllocs: the full
// default catalog, the full deployment mesh, open-loop invocation chains in
// every zone, and a slice of cross-region traffic so shards genuinely
// synchronize.
type MeshLoadConfig struct {
	Seed uint64
	// Shards is the engine width; <= 1 runs the single-queue engine.
	Shards int
	// Invocations is the total invocation budget across all zones.
	Invocations int
	// Workers is the number of concurrent chains per zone (default 8).
	Workers int
	// CrossEvery makes every Nth chain step target a zone in another
	// region, exercising the cross-shard path (default 20, ~5%).
	CrossEvery int
}

// MeshLoadStats is a load run's outcome. Wall is measured around the
// simulation run only (world construction excluded).
type MeshLoadStats struct {
	Invocations int
	Zones       int
	Deployments int
	Checksum    uint64
	Wall        time.Duration
}

// meshChain is one zone's traffic accumulator. Each zone's chains run
// entirely on that zone's shard, so the accumulator has a single writer.
type meshChain struct {
	az       string
	env      *sim.Env
	function string
	// partner is the cross-region target (an endpoint in the next
	// catalog region).
	partnerAZ string
	partnerFn string
	rand      *rng.Stream
	checksum  uint64
	completed int
}

// RunMeshLoad builds the 41-region world on the requested engine and runs
// the load to completion. The returned checksum is independent of the
// engine width — the determinism tests and EX-9 both assert it.
func RunMeshLoad(cfg MeshLoadConfig) (MeshLoadStats, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if cfg.CrossEvery == 0 {
		cfg.CrossEvery = 20
	}
	// The load world stretches the intra-cloud RTT to 8 ms so every
	// cross-shard interaction carries at least 4 ms of simulated latency;
	// the sharded engine can then advance in 4 ms windows instead of the
	// core default's 1 ms, quadrupling the events per merge barrier. No
	// per-invocation RNG latency draws are used anywhere on this path, so
	// the event timeline — and the checksum — is identical on every
	// engine width.
	opts := cloudsim.Options{HorizonDays: 2, IntraCloudRTT: 8 * time.Millisecond}.WithDefaults()
	var env *sim.Env
	if cfg.Shards > 1 {
		env = sim.NewSharded(defaultEpoch, cfg.Shards, opts.IntraCloudRTT/2).Control()
	} else {
		env = sim.NewEnv(defaultEpoch)
	}
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
				env:      az.Env(),
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
	// nearly always in a different region (and therefore often on a
	// different shard).
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
		startZoneLoad(cloud, ch, cfg.Workers, n, cfg.CrossEvery)
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
	// Zones are folded in sorted order; each zone's checksum was built on
	// its own shard in deterministic event order.
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
// inter-arrival gap. Everything here runs on the zone's shard; only the
// cross-region steps leave it.
func startZoneLoad(cloud *cloudsim.Cloud, ch *meshChain, workers, n, crossEvery int) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	remaining := n
	var step func(w int)
	step = func(w int) {
		if remaining <= 0 {
			return
		}
		remaining--
		seq := n - remaining
		target, fn := ch.az, ch.function
		if crossEvery > 0 && seq%crossEvery == 0 {
			target, fn = ch.partnerAZ, ch.partnerFn
		}
		cloud.StartInvokeFrom(ch.env, cloudsim.Request{
			Account:  "ex9",
			AZ:       target,
			Function: fn,
			Work:     cloudsim.SleepBehavior{D: 15 * time.Millisecond},
		}, func(resp cloudsim.Response) {
			// Fold the response: FNV-1a over the identifying fields keeps the
			// checksum sensitive to placement, billing, and timing alike.
			// Hand-rolled (no fmt, no hash.Hash) — this runs once per
			// invocation and must stay off the allocator.
			h := uint64(fnvOffset)
			for i := 0; i < len(resp.FI); i++ {
				h = (h ^ uint64(resp.FI[i])) * fnvPrime
			}
			h = (h ^ uint64(resp.CPU)) * fnvPrime
			if resp.Cold {
				h = (h ^ 1) * fnvPrime
			}
			h = (h ^ math.Float64bits(resp.BilledMS)) * fnvPrime
			h = (h ^ uint64(ch.env.Now().UnixNano())) * fnvPrime
			ch.checksum = ch.checksum*fnvPrime ^ h
			if resp.OK() {
				ch.completed++
			}
			// Jittered think time: nanosecond-granular so no two zones'
			// events collide on the same instant (which would make event
			// order — and thus replay — depend on tie-breaking).
			gap := 2*time.Millisecond + time.Duration(int64(ch.rand.Intn(int(2*time.Millisecond))))
			ch.env.Schedule(gap, func() { step(w) })
		})
	}
	for w := 0; w < workers; w++ {
		w := w
		// Stagger worker starts with the same jittered stream.
		ch.env.Schedule(time.Duration(ch.rand.Intn(int(5*time.Millisecond)))+time.Duration(w), func() { step(w) })
	}
}
