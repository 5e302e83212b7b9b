package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"startNS"` // since the tracer was created
	EndNS   int64  `json:"endNS"`
}

// tracer keeps spans in memory until the run ends; a nil tracer records
// nothing, which is how the untraced runs run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID for children to point at.
func (t *tracer) add(parent, req int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// close moves the end of a span that was added before its children ran.
func (t *tracer) close(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, every span's self time in milliseconds:
// its duration minus the part its children cover (children of one parent do
// not overlap here, so the sum of their durations is that part).
func selfTimes(spans []span) map[string]samples {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]samples)
	for _, s := range spans {
		self := s.EndNS - s.StartNS - child[s.ID]
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Host     hostRecord `json:"host"`
	// SelfMSp50 is the median self time per span name, the first thing to
	// read: the layer whose self time is largest is where the time goes.
	SelfMSp50 map[string]float64 `json:"selfMSp50"`
	Spans     []span             `json:"spans"`
}

func writeTrace(path, workload string, seed uint64, host hostRecord, spans []span) error {
	tf := traceFile{Workload: workload, Seed: seed, Host: host, Spans: spans, SelfMSp50: map[string]float64{}}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tf.SelfMSp50[name] = self[name].sorted().pct(0.5)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
