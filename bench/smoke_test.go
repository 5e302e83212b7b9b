package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeScale runs every code path of the benchmark in seconds: the numbers
// mean nothing, the names, units and checks are what is tested.
var smokeScale = scale{
	margin: 20 * time.Second, meshSlice: 20_000, setupReps: 3, experiments: 11, iterDiv: 1000,
	probeGateway: time.Second, replayBursts: 40, idle: 100 * time.Millisecond,
}

// smokeConfig uses a seed without reference digests: at smoke scale the
// outputs differ from the ones expected/ records.
func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	t.Helper()
	spec, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{
		dir: ".", outDir: t.TempDir(), spec: spec, workload: workload, seed: 7,
		d: time.Second, trace: trace, expectedDir: "expected", scale: smokeScale,
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts that got holds exactly the declared metrics, each
// with its declared unit and a finite value.
func checkMetrics(t *testing.T, declared []metricSpec, got map[string]metric) {
	t.Helper()
	for _, d := range declared {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
		}
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is declared in BENCHMARK.json but was not emitted", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s emitted with unit %q, declared with %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
	}
	if len(got) != len(declared) {
		t.Errorf("%d metrics emitted, %d declared", len(got), len(declared))
	}
}

func TestEveryWorkloadEmitsTheEndToEndMetrics(t *testing.T) {
	cfg := smokeConfig(t, "", false)
	for _, w := range cfg.spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			// The numbers mean nothing at smoke scale, so the workloads may
			// as well share the host: the served ones mostly sleep.
			t.Parallel()
			cfg := smokeConfig(t, w.Name, false)
			rep, err := runOnce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.verdict(); err != nil || rep.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", rep.Correct, rep.Attempted, rep.Failed, rep.Err)
			}
			checkMetrics(t, cfg.spec.EndToEnd, rep.Metrics)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			var buf bytes.Buffer
			if err := rep.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not a JSON object: %v", err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[key]; !ok {
					t.Errorf("result line lacks %q", key)
				}
			}
			if len(last) != 4 {
				t.Errorf("result line has %d keys, want exactly correct, attempted, failed, metrics", len(last))
			}
		})
	}
}

// replaySteps are the spans the layer replay records under replay.burst.
var replaySteps = []string{
	"tenant.resolve", "skyd.decode", "router.build", "tenant.acquire", "admission.admit",
	"skyd.exec", "core.run", "admission.done", "tenant.release", "skyd.encode", "metrics.observe",
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	cfg := smokeConfig(t, "gateway_mixed", true)
	if !testing.Short() {
		// The full warm-up, for the comparison at the end: short of it, the
		// instances set-up created are reaped in the middle of the replay
		// and its timings jump. -short leaves both out.
		cfg.scale.margin, cfg.scale.replayBursts = fullScale.margin, 100
	}
	rep, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.verdict(); err != nil {
		t.Fatalf("correct=%v failed=%d/%d: %s", rep.Correct, rep.Failed, rep.Attempted, rep.Err)
	}
	checkMetrics(t, cfg.spec.PerLayer, rep.Metrics)

	data, err := os.ReadFile(filepath.Join(cfg.outDir, "gateway_mixed.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range tf.Spans {
		seen[s.Name] = true
		if s.EndNS < s.StartNS {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, name := range append([]string{"request", "http.client", "skyd.handler", "replay.burst"}, replaySteps...) {
		if !seen[name] {
			t.Errorf("trace has no %s span", name)
		}
	}
	if testing.Short() {
		return
	}
	// The replay makes the calls the handler makes, so the layers' self
	// times must add up to the handler time of the HTTP requests sent in
	// turn with it.
	var sum float64
	for _, name := range replaySteps {
		sum += tf.SelfMSp50[name]
	}
	handler := rep.Metrics["skyd.handler_seq_ms_p50"].Value
	if diff := math.Abs(sum-handler) / handler; diff > 0.10 {
		t.Errorf("replay self times sum to %.3f ms, skyd.handler_seq_ms_p50 is %.3f ms: %.0f%% apart, want within 10%%", sum, handler, diff*100)
	}
}

// TestBurstMirrorsMatchTheServer holds burstReq and burstJS, the copies of
// skyd's unexported types behind skyd.decode_ns and skyd.encode_ns, to what
// a real /v1/burst accepts and answers.
func TestBurstMirrorsMatchTheServer(t *testing.T) {
	s, err := startServed(".", false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	// Every field of the mirror, set: the server refuses fields it does
	// not know, so a 200 means it knows them all.
	body, err := json.Marshal(burstReq{
		Strategy: "baseline", AZ: candidates[0], Params: map[string]float64{},
		Workload: "sha1_hash", N: 2, Candidates: candidates,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBurst(body); err != nil {
		t.Fatalf("the mirror does not decode its own encoding: %v", err)
	}
	status, answer, err := s.call("POST", "/v1/burst", "", body, 0)
	if err != nil || status != 200 {
		t.Fatalf("POST /v1/burst with every burstReq field: status %d, err %v: %s", status, err, answer)
	}
	// The answer must decode into the mirror with nothing left over and
	// encode back byte for byte: same fields, same order, same format.
	var js burstJS
	dec := json.NewDecoder(bytes.NewReader(answer))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		t.Fatalf("the server's answer does not fit burstJS: %v", err)
	}
	var again bytes.Buffer
	enc := json.NewEncoder(&again)
	enc.SetIndent("", "  ")
	if err := enc.Encode(js); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), answer) {
		t.Errorf("burstJS encodes to\n%s\nthe server answered\n%s", again.Bytes(), answer)
	}
}

func TestTamperedExpectedFileFails(t *testing.T) {
	dir := t.TempDir()
	cfg := smokeConfig(t, "paper_repro", false)
	// The two quickest experiments: a digest is a digest.
	cfg.seed, cfg.expectedDir, cfg.scale.experiments = expectedSeed, dir, 2
	ref := filepath.Join(dir, "paper_repro.seed42")

	first := paperRepro(cfg.seed, cfg.scale.experiments, 0, nil, 0, dir)
	if first.err == nil {
		t.Fatal("a run at the reference seed passed without a reference digest")
	}
	if err := os.WriteFile(ref, []byte(first.digest+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.verdict(); err != nil {
		t.Fatalf("run against its own digest: %v: %s", err, rep.Err)
	}

	tampered := "0" + first.digest[1:]
	if tampered == first.digest {
		tampered = "1" + first.digest[1:]
	}
	if err := os.WriteFile(ref, []byte(tampered+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.verdict() == nil {
		t.Fatal("a tampered reference digest went unnoticed")
	}
	if rep.Correct || rep.Failed != rep.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want incorrect and every operation failed", rep.Correct, rep.Failed, rep.Attempted)
	}
}

func writeSet(t *testing.T, dir, name string, values ...float64) string {
	t.Helper()
	set := runSet{Runs: map[string][]setRun{}}
	for i, v := range values {
		set.Runs["w"] = append(set.Runs["w"], setRun{Seed: uint64(i), result: result{
			Correct: true, Attempted: 1,
			Metrics: map[string]metric{"lat_ms": {Value: v, Unit: "ms"}},
		}})
	}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"workloads":[{"name":"w","why":""}],
		"end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := writeSet(t, dir, "base.json", 99, 100, 100, 101, 100)
	for _, tc := range []struct {
		name    string
		values  []float64
		verdict string
		fails   bool
	}{
		{"same", []float64{100, 101, 99, 100, 100}, "ok", false},
		{"slower", []float64{120, 121, 119, 120, 120}, "REGRESSION", true},
		{"faster", []float64{80, 81, 79, 80, 80}, "better", false},
		// Noisier than the bound: the sets cannot tell, whatever the medians say.
		{"noisy", []float64{70, 100, 130, 160, 190}, "unresolved", false},
		// A set without the workload's runs is not a clean comparison.
		{"empty", nil, "MISSING", true},
	} {
		var buf bytes.Buffer
		err := compareSets(spec, base, writeSet(t, dir, tc.name+".json", tc.values...), &buf)
		if (err != nil) != tc.fails {
			t.Errorf("%s: error %v, want failure=%v", tc.name, err, tc.fails)
		}
		if !strings.Contains(buf.String(), tc.verdict) {
			t.Errorf("%s: no %q verdict in:\n%s", tc.name, tc.verdict, buf.String())
		}
	}
}

func TestQuartilesMatchPythonsExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles %v, %v and median %v, want 2.75, 8.25 and 5.5", q1, q3, median(v))
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 10e6},
		{ID: 2, Parent: 1, Name: "child", StartNS: 1e6, EndNS: 4e6},
		{ID: 3, Parent: 1, Name: "child", StartNS: 5e6, EndNS: 9e6},
	}
	self := selfTimes(spans)
	if got := self["parent"][0]; got != 3 {
		t.Errorf("parent self time %v ms, want 3", got)
	}
	if got := self["child"]; len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("child self times %v, want [3 4]", got)
	}
}
