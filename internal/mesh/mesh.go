// Package mesh builds and indexes the sky mesh (§3.3): a blanket of
// pre-deployed dynamic functions across every provider, region, and zone,
// covering each platform's configuration space (memory settings ×
// architectures), so any workload can run anywhere on demand with no
// deployment step.
package mesh

import (
	"fmt"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/dynfunc"
)

// Config selects the deployment matrix per provider. Zero fields take the
// paper's values.
type Config struct {
	// AWSMemoriesMB are the Lambda memory settings (9 in the paper).
	AWSMemoriesMB []int
	// AWSArchs are the Lambda architectures (x86_64 and arm64).
	AWSArchs []cpu.Arch
	// IBMMemoriesMB are the Code Engine memory settings (3 in the paper).
	IBMMemoriesMB []int
	// DOMemoriesMB are the DigitalOcean Functions settings.
	DOMemoriesMB []int
}

func (c Config) withDefaults() Config {
	if len(c.AWSMemoriesMB) == 0 {
		c.AWSMemoriesMB = []int{128, 256, 512, 1024, 2048, 4096, 6144, 8192, 10240}
	}
	if len(c.AWSArchs) == 0 {
		c.AWSArchs = []cpu.Arch{cpu.X86, cpu.ARM}
	}
	if len(c.IBMMemoriesMB) == 0 {
		c.IBMMemoriesMB = []int{1024, 2048, 4096}
	}
	if len(c.DOMemoriesMB) == 0 {
		c.DOMemoriesMB = []int{512, 1024}
	}
	return c
}

// Endpoint is one dynamic-function deployment in the mesh.
type Endpoint struct {
	Provider cloudsim.Provider
	Region   string
	AZ       string
	Function string
	MemoryMB int
	Arch     cpu.Arch
}

type key struct {
	az   string
	mem  int
	arch cpu.Arch
}

// Mesh is the deployed matrix with an endpoint index.
type Mesh struct {
	cloud     *cloudsim.Cloud
	endpoints []Endpoint
	index     map[key]Endpoint
}

// Build deploys the mesh across every zone of the cloud.
func Build(cloud *cloudsim.Cloud, cfg Config) (*Mesh, error) {
	cfg = cfg.withDefaults()
	m := &Mesh{cloud: cloud, index: make(map[key]Endpoint)}
	for _, region := range cloud.Regions() {
		var mems []int
		archs := []cpu.Arch{cpu.X86}
		switch region.Provider() {
		case cloudsim.AWS:
			mems = cfg.AWSMemoriesMB
			archs = cfg.AWSArchs
		case cloudsim.IBM:
			mems = cfg.IBMMemoriesMB
		case cloudsim.DO:
			mems = cfg.DOMemoriesMB
		default:
			return nil, fmt.Errorf("mesh: unknown provider %v", region.Provider())
		}
		for _, az := range region.AZs() {
			for _, mem := range mems {
				for _, arch := range archs {
					name := fmt.Sprintf("skymesh-%s-%d-%s", az.Name(), mem, arch)
					if _, err := dynfunc.Deploy(cloud, az.Name(), name, mem, arch); err != nil {
						return nil, fmt.Errorf("mesh: %w", err)
					}
					ep := Endpoint{
						Provider: region.Provider(),
						Region:   region.Name(),
						AZ:       az.Name(),
						Function: name,
						MemoryMB: mem,
						Arch:     arch,
					}
					m.endpoints = append(m.endpoints, ep)
					m.index[key{az: az.Name(), mem: mem, arch: arch}] = ep
				}
			}
		}
	}
	return m, nil
}

// Size returns the number of deployed endpoints.
func (m *Mesh) Size() int { return len(m.endpoints) }

// Endpoints returns every endpoint in deployment order.
func (m *Mesh) Endpoints() []Endpoint {
	out := make([]Endpoint, len(m.endpoints))
	copy(out, m.endpoints)
	return out
}

// Lookup finds the endpoint for (zone, memory, arch).
func (m *Mesh) Lookup(az string, memoryMB int, arch cpu.Arch) (Endpoint, bool) {
	ep, ok := m.index[key{az: az, mem: memoryMB, arch: arch}]
	return ep, ok
}

// Nearest returns the endpoint in az whose memory setting is the smallest
// one >= memoryMB (falling back to the largest available); it lets callers
// ask for "at least this much memory".
func (m *Mesh) Nearest(az string, memoryMB int, arch cpu.Arch) (Endpoint, bool) {
	var best Endpoint
	found := false
	var bestMem int
	var maxEp Endpoint
	var maxMem int
	for k, ep := range m.index {
		if k.az != az || k.arch != arch {
			continue
		}
		if k.mem > maxMem {
			maxMem, maxEp = k.mem, ep
		}
		if k.mem >= memoryMB && (!found || k.mem < bestMem) {
			best, bestMem, found = ep, k.mem, true
		}
	}
	if found {
		return best, true
	}
	if maxMem > 0 {
		return maxEp, true
	}
	return Endpoint{}, false
}
