package cloudsim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// PriceModel is a FaaS platform's published rate card.
type PriceModel struct {
	// PerGBSecond is the compute price per GB-second of billed duration.
	PerGBSecond float64
	// PerRequest is the flat per-invocation price.
	PerRequest float64
	// GranularityMS is the billing rounding unit (1 ms on AWS Lambda).
	GranularityMS float64
}

// defaultPrices carries each provider's published x86 rate card.
func defaultPrices() map[Provider]PriceModel {
	return map[Provider]PriceModel{
		AWS: {PerGBSecond: 0.0000166667, PerRequest: 0.0000002, GranularityMS: 1},
		IBM: {PerGBSecond: 0.000017, PerRequest: 0, GranularityMS: 100},
		DO:  {PerGBSecond: 0.0000185, PerRequest: 0, GranularityMS: 1},
	}
}

// Cost computes the charge for one invocation of memoryMB at runtimeMS.
func (p PriceModel) Cost(memoryMB int, runtimeMS float64) float64 {
	if runtimeMS < 0 {
		runtimeMS = 0
	}
	billed := runtimeMS
	if p.GranularityMS > 0 {
		billed = math.Ceil(runtimeMS/p.GranularityMS) * p.GranularityMS
	}
	gb := float64(memoryMB) / 1024
	return gb*(billed/1000)*p.PerGBSecond + p.PerRequest
}

// Meter accumulates spend, grouped by a caller-chosen label (experiment
// phase, policy name, account). Meters are safe for concurrent use so the
// live-paced examples can share one across goroutines.
//
// Charges accumulate per (label, bucket) in a meterCell: the cloud buckets
// by region, and resolves each (account, region) cell once. Totals sum
// buckets in sorted order, so the floating-point result does not depend on
// map iteration order.
type Meter struct {
	mu sync.Mutex
	// byLabel is each label's spend; guarded by mu.
	byLabel map[string]*meterLabel
}

// meterLabel is one label's spend, split by bucket.
type meterLabel struct {
	buckets map[string]*meterCell
}

// meterCell is the accumulator of one (label, bucket): a caller that
// charges the same pair again and again holds the cell instead of naming
// the pair each time.
type meterCell struct {
	m *Meter
	// sum is the cell's spend, under the meter's mu.
	sum float64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{byLabel: make(map[string]*meterLabel)}
}

// cell returns the accumulator of (label, bucket), creating it empty. An
// empty cell adds nothing to any total.
func (m *Meter) cell(label, bucket string) *meterCell {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.byLabel[label]
	if !ok {
		l = &meterLabel{buckets: make(map[string]*meterCell)}
		m.byLabel[label] = l
	}
	cell, ok := l.buckets[bucket]
	if !ok {
		cell = &meterCell{m: m}
		l.buckets[bucket] = cell
	}
	return cell
}

// charge records cost in the cell.
func (c *meterCell) charge(cost float64) {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	c.sum += cost
}

// ChargeIn records cost under label in the named bucket. Callers that can
// charge concurrently from several goroutines must give each one its own
// bucket so per-bucket accumulation order stays deterministic.
func (m *Meter) ChargeIn(label, bucket string, cost float64) {
	m.cell(label, bucket).charge(cost)
}

// sum adds the label's buckets whose name starts with prefix, in sorted
// key order (0 for a nil label). Callers hold mu.
func (l *meterLabel) sum(prefix string) float64 {
	if l == nil || len(l.buckets) == 0 {
		return 0
	}
	keys := make([]string, 0, len(l.buckets))
	for k := range l.buckets {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += l.buckets[k].sum
	}
	return sum
}

// TotalPrefix returns label's cumulative spend across buckets whose name
// starts with prefix, summed in sorted order so the float result is
// replay-stable. The cloud buckets warm-pool provisioning under
// "warmpool/<region>", so TotalPrefix(account, "warmpool/") isolates that
// spend from the rollup TotalPrefix(account, "") reports in full.
func (m *Meter) TotalPrefix(label, prefix string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byLabel[label].sum(prefix)
}

// GrandTotal returns spend across every label. Summation follows sorted
// label order so the result is bit-identical across runs regardless of map
// iteration order.
func (m *Meter) GrandTotal() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	labels := make([]string, 0, len(m.byLabel))
	for label := range m.byLabel {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var sum float64
	for _, label := range labels {
		sum += m.byLabel[label].sum("")
	}
	return sum
}

// String renders the grand total.
func (m *Meter) String() string {
	return fmt.Sprintf("$%.4f", m.GrandTotal())
}
