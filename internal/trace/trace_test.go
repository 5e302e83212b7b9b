package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/sim"
)

func TestRecorderCapturesInvocations(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)

	env := sim.NewEnv(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	catalog := []cloudsim.RegionSpec{{
		Provider: cloudsim.AWS, Name: "r", Loc: geo.Coord{},
		AZs: []cloudsim.AZSpec{{
			Name: "r-az", PoolFIs: 256,
			Mix: map[cpu.Kind]float64{cpu.Xeon25: 1},
		}},
	}}
	cloud := cloudsim.New(env, 5, catalog, cloudsim.Options{
		HorizonDays: 1,
		OnResponse:  rec.Hook(),
	})
	if _, err := cloud.Deploy("r-az", "fn", cloudsim.DeployConfig{
		MemoryMB: 1024, Behavior: cloudsim.SleepBehavior{D: 20 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		cloud.StartInvoke(cloudsim.Request{Account: "a", AZ: "r-az", Function: "fn"}, func(cloudsim.Response) {})
	}
	// One failing request too.
	cloud.StartInvoke(cloudsim.Request{Account: "a", AZ: "r-az", Function: "ghost"}, func(cloudsim.Response) {})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	if rec.Count() != 6 {
		t.Fatalf("count = %d", rec.Count())
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	sc := bufio.NewScanner(&buf)
	var records []Record
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		records = append(records, r)
	}
	if len(records) != 6 {
		t.Fatalf("parsed %d records", len(records))
	}
	okCount, errCount := 0, 0
	for _, r := range records {
		if r.Error != "" {
			errCount++
			continue
		}
		okCount++
		if r.AZ != "r-az" || r.Function != "fn" || r.CPU != "Xeon 2.50GHz" {
			t.Errorf("record = %+v", r)
		}
		if r.FI == "" || r.BilledMS <= 0 || r.CostUSD <= 0 || r.Time.IsZero() {
			t.Errorf("incomplete record: %+v", r)
		}
	}
	if okCount != 5 || errCount != 1 {
		t.Fatalf("ok/err = %d/%d", okCount, errCount)
	}
}

func TestRecorderMarksDeclines(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	hook := rec.Hook()
	hook(cloudsim.Request{AZ: "z", Function: "f"}, cloudsim.Response{
		Value: cloudsim.ProbeOutcome{Ran: false},
	})
	if !strings.Contains(buf.String(), `"declined":true`) {
		t.Fatalf("decline not marked: %s", buf.String())
	}
}

func TestRecorderSurfacesWriteError(t *testing.T) {
	rec := NewRecorder(errWriter{})
	rec.Hook()(cloudsim.Request{}, cloudsim.Response{})
	if rec.Err() == nil {
		t.Fatal("write error swallowed")
	}
}

type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errBoom }

var errBoom = bufio.ErrBufferFull // any sentinel error

// TestRecorderConcurrentUse hammers the hook from several goroutines while
// another reads Count/Err — the pattern a paced skyd run produces. Run under
// -race this proves the Recorder's mutex actually covers every field.
func TestRecorderConcurrentUse(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	hook := rec.Hook()
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				hook(cloudsim.Request{AZ: "z", Function: "f"}, cloudsim.Response{})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = rec.Count()
			_ = rec.Err()
		}
	}()
	wg.Wait()
	<-done
	if got := rec.Count(); got != writers*each {
		t.Fatalf("count = %d, want %d", got, writers*each)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != writers*each {
		t.Fatalf("lines = %d, want %d", lines, writers*each)
	}
}

// TestRecorderNamesInstances pins the instance names a trace prints: a
// success and a probe's decline name the instance they ran on,
// "fi-<zone>-<n>" with n the zone's instance number, and a throttled
// request, which ran on none, has no "fi" key.
func TestRecorderNamesInstances(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	env := sim.NewEnv(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	catalog := []cloudsim.RegionSpec{{
		Provider: cloudsim.AWS, Name: "r", Loc: geo.Coord{},
		AZs: []cloudsim.AZSpec{{
			Name: "r-az", PoolFIs: 256,
			Mix: map[cpu.Kind]float64{cpu.Xeon25: 1},
		}},
	}}
	cloud := cloudsim.New(env, 5, catalog, cloudsim.Options{
		HorizonDays: 1,
		Quota:       2,
		OnResponse:  rec.Hook(),
	})
	if _, err := cloud.Deploy("r-az", "fn", cloudsim.DeployConfig{
		MemoryMB: 1024, Behavior: cloudsim.SleepBehavior{D: 20 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.Deploy("r-az", "probe", cloudsim.DeployConfig{
		MemoryMB: 1024, Behavior: cloudsim.ProbeBehavior{Banned: cpu.Mask(0).Add(cpu.Xeon25)},
	}); err != nil {
		t.Fatal(err)
	}
	// Two requests fill the account's quota of 2, so the third is
	// throttled.
	for _, fn := range []string{"fn", "probe", "fn"} {
		cloud.StartInvoke(cloudsim.Request{Account: "a", AZ: "r-az", Function: fn}, func(cloudsim.Response) {})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d records, want 3:\n%s", len(lines), buf.String())
	}
	var ran, declined, throttled int
	for _, line := range lines {
		switch {
		case strings.Contains(line, `"error":"`):
			throttled++
			if strings.Contains(line, `"fi"`) {
				t.Errorf("a throttled request names an instance: %s", line)
			}
		case strings.Contains(line, `"declined":true`):
			declined++
			if !strings.Contains(line, `"fi":"fi-r-az-2"`) {
				t.Errorf("the decline does not name instance 2: %s", line)
			}
		default:
			ran++
			if !strings.Contains(line, `"fi":"fi-r-az-1"`) {
				t.Errorf("the success does not name instance 1: %s", line)
			}
		}
	}
	if ran != 1 || declined != 1 || throttled != 1 {
		t.Fatalf("%d ran, %d declined, %d failed, want 1 each:\n%s", ran, declined, throttled, buf.String())
	}
}
