// Package workload is the cost model of Table 1's twelve serverless
// functions. Each Spec carries the paper's vCPU demand, the mean billed
// runtime on the reference CPU (Intel Xeon 2.50 GHz, the most prevalent
// Lambda processor) and a per-CPU runtime multiplier table. The multiplier
// table is the *ground truth* behind Fig. 9: the hidden hardware
// performance the smart routing system must discover by profiling, because
// the simulation, like the real cloud, never exposes it directly. Nothing
// here runs the functions; SeBS describes what each one does.
//
// Multipliers encode the paper's observed hierarchy: the 3.0 GHz Xeon is
// 5–15% faster than baseline, the 2.9 GHz Xeon is 15–30% slower, and the
// AMD EPYC is up to 50% slower — except for disk_writer,
// disk_write_and_process and sha1_hash, which are less CPU-speed sensitive
// (EPYC slightly beats baseline on disk_writer).
package workload

import (
	"fmt"

	"skyfaas/internal/cpu"
)

// ID identifies one of the twelve Table-1 workloads.
type ID int

// The Table-1 workload catalog.
const (
	GraphMST ID = iota + 1
	GraphBFS
	PageRank
	DiskWriter
	DiskWriteProcess
	Zipper
	Thumbnailer
	Sha1Hash
	JSONFlattener
	MathService
	MatrixMultiply
	LogisticRegression

	numWorkloads = int(LogisticRegression)
)

// Spec is the static description and cost model of a workload.
type Spec struct {
	ID          ID
	Name        string  // snake_case name used in figures and payloads
	VCPUs       float64 // Table-1 vCPU demand
	Description string  // Table-1 description
	// BaseMS is the mean billed runtime (milliseconds) on the reference
	// Xeon 2.50 GHz with enough memory to satisfy VCPUs.
	BaseMS float64
	// NoiseFrac is the run-to-run lognormal-ish runtime noise fraction
	// (resource contention aside).
	NoiseFrac float64
	// factors maps CPU kind -> runtime multiplier relative to Xeon25.
	factors map[cpu.Kind]float64
}

// CPUFactor returns the ground-truth runtime multiplier of k relative to
// the reference Xeon 2.50 GHz for this workload. A kind without an entry
// returns 1.
func (s Spec) CPUFactor(k cpu.Kind) float64 {
	if f, ok := s.factors[k]; ok {
		return f
	}
	return 1
}

// mkFactors builds a multiplier table. x30, x29, epyc are the AWS-specific
// Fig.-9 multipliers; the remaining catalogued kinds get clock-scaled
// defaults tempered toward 1 (cross-provider CPUs showed little spread).
func mkFactors(x30, x29, epyc float64) map[cpu.Kind]float64 {
	return map[cpu.Kind]float64{
		cpu.Xeon25:       1.00,
		cpu.Xeon30:       x30,
		cpu.Xeon29:       x29,
		cpu.EPYC:         epyc,
		cpu.Graviton:     1.10,
		cpu.IBMCascade24: 1.04,
		cpu.IBMCascade25: 1.00,
		cpu.DOXeon26:     0.99,
		cpu.DOXeon27:     0.97,
	}
}

var specs = [...]Spec{
	{
		ID: GraphMST, Name: "graph_mst", VCPUs: 1,
		Description: "Generates a graph and calculates its minimum spanning tree.",
		BaseMS:      3800, NoiseFrac: 0.05,
		factors: mkFactors(0.90, 1.20, 1.35),
	},
	{
		ID: GraphBFS, Name: "graph_bfs", VCPUs: 1,
		Description: "Generates a graph and performs a breadth-first search.",
		BaseMS:      4800, NoiseFrac: 0.05,
		factors: mkFactors(0.85, 1.28, 1.48),
	},
	{
		ID: PageRank, Name: "page_rank", VCPUs: 1.2,
		Description: "Generates a graph and computes the PageRank of each node.",
		BaseMS:      4500, NoiseFrac: 0.05,
		factors: mkFactors(0.87, 1.25, 1.38),
	},
	{
		ID: DiskWriter, Name: "disk_writer", VCPUs: 1,
		Description: "Generates text, repeatedly writes it to disk, and deletes it.",
		BaseMS:      1200, NoiseFrac: 0.08,
		// Less sensitive to raw CPU speed; EPYC slightly beats baseline.
		factors: mkFactors(0.97, 1.08, 0.96),
	},
	{
		ID: DiskWriteProcess, Name: "disk_write_and_process", VCPUs: 1,
		Description: "Writes a large text file and then runs several shell commands (wc, base64, sha1sum, cat) on it in a loop.",
		BaseMS:      1800, NoiseFrac: 0.08,
		factors: mkFactors(0.96, 1.10, 1.02),
	},
	{
		ID: Zipper, Name: "zipper", VCPUs: 2,
		Description: "Generates files and compresses them into ZIP archives.",
		BaseMS:      4200, NoiseFrac: 0.06,
		factors: mkFactors(0.85, 1.22, 1.38),
	},
	{
		ID: Thumbnailer, Name: "thumbnailer", VCPUs: 1,
		Description: "Generates a random bitmap image and scales it to different sizes.",
		BaseMS:      2400, NoiseFrac: 0.05,
		factors: mkFactors(0.89, 1.18, 1.30),
	},
	{
		ID: Sha1Hash, Name: "sha1_hash", VCPUs: 1,
		Description: "Takes an input string and produces its SHA-1 hash.",
		BaseMS:      900, NoiseFrac: 0.07,
		factors: mkFactors(0.95, 1.12, 1.05),
	},
	{
		ID: JSONFlattener, Name: "json_flattener", VCPUs: 1,
		Description: "Recursively generates a large JSON object and flattens it into key-value pairs.",
		BaseMS:      2600, NoiseFrac: 0.05,
		factors: mkFactors(0.90, 1.22, 1.33),
	},
	{
		ID: MathService, Name: "math_service", VCPUs: 2,
		Description: "Builds large arrays and repeatedly performs arithmetic operations on them.",
		BaseMS:      5200, NoiseFrac: 0.04,
		factors: mkFactors(0.86, 1.28, 1.48),
	},
	{
		ID: MatrixMultiply, Name: "matrix_multiply", VCPUs: 2,
		Description: "Generates large matrices and executes multiply and dot operations in loops.",
		BaseMS:      6000, NoiseFrac: 0.04,
		factors: mkFactors(0.87, 1.26, 1.42),
	},
	{
		ID: LogisticRegression, Name: "logistic_regression", VCPUs: 2,
		Description: "Runs logistic-regression SGD across two threads on a generated dataset for the requested epochs.",
		BaseMS:      6500, NoiseFrac: 0.04,
		factors: mkFactors(0.85, 1.30, 1.50),
	},
}

// All returns the Table-1 catalog in table order.
func All() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs[:])
	return out
}

// Get returns the spec for id.
func Get(id ID) (Spec, bool) {
	i := int(id) - 1
	if i < 0 || i >= len(specs) {
		return Spec{}, false
	}
	return specs[i], true
}

// ByName resolves a workload by its snake_case name.
func ByName(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// IDs returns all workload ids in table order.
func IDs() []ID {
	out := make([]ID, 0, numWorkloads)
	for i := 1; i <= numWorkloads; i++ {
		out = append(out, ID(i))
	}
	return out
}

// String returns the workload's snake_case name.
func (id ID) String() string {
	if s, ok := Get(id); ok {
		return s.Name
	}
	return fmt.Sprintf("workload(%d)", int(id))
}

// MemoryFactor returns the runtime multiplier induced by a memory setting.
// FaaS platforms scale CPU share linearly with memory (1 vCPU per 1769 MB
// on AWS Lambda); a deployment whose memory grants fewer effective vCPUs
// than the workload demands runs proportionally slower. Extra vCPUs beyond
// the demand do not speed the workload up.
func (s Spec) MemoryFactor(memoryMB int) float64 {
	if memoryMB <= 0 {
		return 1
	}
	const mbPerVCPU = 1769.0
	effective := float64(memoryMB) / mbPerVCPU
	if effective >= s.VCPUs {
		return 1
	}
	return s.VCPUs / effective
}
