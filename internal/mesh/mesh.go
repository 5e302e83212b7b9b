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

// Config selects the deployment matrix.
type Config struct {
	// Minimal deploys minimalMatrix, enough for routing, instead of the
	// paper's fullMatrix.
	Minimal bool
}

// matrix is one deployment matrix: the memory settings per provider, and
// the architectures on AWS (the other providers run x86 only).
type matrix struct {
	awsMemoriesMB []int
	awsArchs      []cpu.Arch
	ibmMemoriesMB []int
	doMemoriesMB  []int
}

var (
	// fullMatrix is the paper's: Lambda's 9 memory settings on x86_64 and
	// arm64, Code Engine's 3, and DigitalOcean Functions' 2.
	fullMatrix = matrix{
		awsMemoriesMB: []int{128, 256, 512, 1024, 2048, 4096, 6144, 8192, 10240},
		awsArchs:      []cpu.Arch{cpu.X86, cpu.ARM},
		ibmMemoriesMB: []int{1024, 2048, 4096},
		doMemoriesMB:  []int{512, 1024},
	}
	// minimalMatrix is one x86 endpoint per zone.
	minimalMatrix = matrix{
		awsMemoriesMB: []int{4096},
		awsArchs:      []cpu.Arch{cpu.X86},
		ibmMemoriesMB: []int{4096},
		doMemoriesMB:  []int{1024},
	}
)

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
	mx := fullMatrix
	if cfg.Minimal {
		mx = minimalMatrix
	}
	m := &Mesh{cloud: cloud, index: make(map[key]Endpoint)}
	for _, region := range cloud.Regions() {
		var mems []int
		archs := []cpu.Arch{cpu.X86}
		switch region.Provider() {
		case cloudsim.AWS:
			mems = mx.awsMemoriesMB
			archs = mx.awsArchs
		case cloudsim.IBM:
			mems = mx.ibmMemoriesMB
		case cloudsim.DO:
			mems = mx.doMemoriesMB
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
