package cloudsim

import (
	"sort"
	"sync"
)

// Meter mirrors the billing meter: a mutex-guarded spend ledger.
type Meter struct {
	mu sync.Mutex
	// byLabel is spend per label; guarded by mu.
	byLabel map[string]float64
}

// Total sums spend without holding mu and in map order: two bugs at once.
func (m *Meter) Total() float64 {
	var sum float64
	for _, v := range m.byLabel { //want mutexheld
		sum += v //want floatdet
	}
	return sum
}

// SortedTotal is the clean pattern: lock held, keys sorted before summing.
func (m *Meter) SortedTotal() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.byLabel))
	for k := range m.byLabel {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m.byLabel[k]
	}
	return sum
}

// Lookup reads byLabel before it takes mu: the function does lock mu, but
// only after the first access, so that access is unguarded.
func (m *Meter) Lookup(label string) float64 {
	if v, ok := m.byLabel[label]; ok { //want mutexheld
		return v
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byLabel[label]
}
