package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"skyfaas/internal/load"
	"skyfaas/internal/rng"
)

// maxWorkers bounds the generator's goroutines and keep-alive connections.
// It is a constant, not nproc, so the offered concurrency is the same on
// every host; four n=1 bursts in flight is 3x what 80 req/s needs at the
// ~12 ms a burst takes, so after a stall the backlog drains instead of
// queueing in the generator.
const maxWorkers = 4

// gatewayRPS is gateway_mixed's constant offered rate.
const gatewayRPS = 80

// request is one planned call. due is its offset from the window start.
type request struct {
	due   time.Duration
	burst bool
	n     int // invocations a burst must complete
	key   string
	path  string
	body  []byte
}

// burstAnswer is the part of /v1/burst's response the harness checks.
type burstAnswer struct {
	Completed int `json:"completed"`
	Attempts  int `json:"attempts"`
}

// window is what one stretch of traffic measured.
type window struct {
	burstMS, readMS   samples // from the instant each request was due (or sent, closed loop)
	rttMS, handlerMS  samples // traced bursts only
	lateMS            samples // how late the generator dispatched
	maxInflight       int
	attempted, failed int
	completedInv      int // invocations completed, summed over burst answers
	attemptsInv       int // invocations issued for them, declines included
	elapsed           time.Duration
	firstErr          error
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

func burstBody(workload string, n int, strategy, az string) []byte {
	m := map[string]any{"workload": workload, "n": n, "strategy": strategy, "candidates": candidates}
	if az != "" {
		m["az"] = az
	}
	b, _ := json.Marshal(m) // a map of strings and ints cannot fail to encode
	return b
}

// gatewayPlan lays out d of gateway traffic: arrivals from load.Schedule at
// a constant 80 req/s, jittered by the seed. In gateway_mixed three of every
// four requests are an n=1 sha1_hash hybrid burst with the tenant key
// rotating and every fourth is a GET rotating over the read endpoints; with
// readHeavy (gateway_reads) the shares are the other way round. Every 60th
// GET is the /metrics scrape, one a second in gateway_reads: the scrape is
// 144 KB of memory-bound work that moves by a quarter with the host's memory
// traffic, and at a sixth of the reads it sat exactly where their p95 is
// read (at one in 24 it began at p95.8, and p95 fell off that edge).
func gatewayPlan(s *served, seed uint64, d time.Duration, readHeavy bool) []request {
	arrivals := load.Schedule{PeakRPS: gatewayRPS, Duration: d}.Arrivals(rng.New(seed).Split("bench-gateway"))
	body := burstBody("sha1_hash", 1, "hybrid", "")
	plan := make([]request, len(arrivals))
	var bursts, reads int
	for i, due := range arrivals {
		if (i%4 != 3) != readHeavy {
			plan[i] = request{due: due, burst: true, n: 1, key: s.keys[bursts%len(s.keys)], path: "/v1/burst", body: body}
			bursts++
			continue
		}
		paths := []string{
			"/v1/characterizations", "/v1/perf?workload=sha1_hash", "/v1/admission",
			"/v1/tenants/" + s.ids[reads%len(s.ids)] + "/usage", "/v1/zones",
		}
		path := paths[reads%len(paths)]
		if reads%60 == 59 {
			path = "/metrics"
		}
		// A tenant may read only its own usage, so reads carry the key of
		// the tenant whose usage the rotation will ask for.
		plan[i] = request{due: due, key: s.keys[reads%len(s.ids)], path: path}
		reads++
	}
	return plan
}

// send issues one planned request, checks the answer and files the timings.
// from is the instant latency counts from; reqID 0 means untraced. It returns
// the invocations the request completed.
func (s *served) send(r request, from time.Time, reqID int, tr *tracer, mu *sync.Mutex, w *window) int {
	method := "GET"
	if r.burst {
		method = "POST"
	}
	sent := time.Now()
	status, data, err := s.call(method, r.path, r.key, r.body, reqID)
	end := time.Now()

	var ans burstAnswer
	switch {
	case err != nil:
	case status != http.StatusOK:
		err = fmt.Errorf("%s %s: status %d: %.200s", method, r.path, status, data)
	case r.burst:
		if err = json.Unmarshal(data, &ans); err == nil && ans.Completed != r.n {
			err = fmt.Errorf("burst completed %d of %d", ans.Completed, r.n)
		}
	case len(data) == 0:
		err = fmt.Errorf("GET %s: empty answer", r.path)
	}

	mu.Lock()
	defer mu.Unlock()
	w.attempted++
	w.lateMS = append(w.lateMS, ms(sent.Sub(from)))
	if err != nil {
		w.fail(err)
		return 0
	}
	if reqID != 0 {
		root := tr.add(0, reqID, "request", from, end)
		cl := tr.add(root, reqID, "http.client", sent, end)
		if v, ok := s.handled.LoadAndDelete(reqID); ok {
			h := v.([2]time.Time)
			tr.add(cl, reqID, "skyd.handler", h[0], h[1])
			if r.burst {
				w.handlerMS = append(w.handlerMS, ms(h[1].Sub(h[0])))
			}
		}
		if r.burst {
			w.rttMS = append(w.rttMS, ms(end.Sub(sent)))
		}
	}
	if !r.burst {
		w.readMS = append(w.readMS, ms(end.Sub(from)))
		return 0
	}
	w.burstMS = append(w.burstMS, ms(end.Sub(from)))
	w.completedInv += ans.Completed
	w.attemptsInv += ans.Attempts
	return ans.Completed
}

// openLoop plays plan against the server: a dispatcher releases each request
// at its due time whatever the server is doing, maxWorkers workers send
// them, and every latency counts from the due time, so the wait a stall
// imposes on later requests is measured rather than hidden. With a tracer,
// requests are numbered from reqBase and leave spans.
func (s *served) openLoop(plan []request, tr *tracer, reqBase int) window {
	var (
		w        window
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight int
	)
	// Sized to the number of sends, so the dispatcher never waits on a
	// worker: that would turn the open loop into a closed one.
	jobs := make(chan int, len(plan))
	start := time.Now()
	for i := 0; i < maxWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				reqID := 0
				if tr != nil {
					reqID = reqBase + i
				}
				s.send(plan[i], start.Add(plan[i].due), reqID, tr, &mu, &w)
				mu.Lock()
				inflight--
				mu.Unlock()
			}
		}()
	}
	for i, r := range plan {
		time.Sleep(time.Until(start.Add(r.due)))
		mu.Lock()
		inflight++
		if inflight > w.maxInflight {
			w.maxInflight = inflight
		}
		mu.Unlock()
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// batchClients is batch_closed's closed-loop population: a batch
// orchestrator waits for each burst before sending the next.
const batchClients = 2

// batchN is the invocations per batch_closed burst.
const batchN = 200

// batchRound is the pair of bursts a batch client sends back to back: one
// hybrid burst over the three candidates and one focus-fastest burst pinned
// to us-west-1b (the paper's Fig. 10 case), in the order the seed picks.
func batchRound(stream *rng.Stream) [2]request {
	hybrid := request{burst: true, n: batchN, path: "/v1/burst", body: burstBody("zipper", batchN, "hybrid", "")}
	focus := request{burst: true, n: batchN, path: "/v1/burst", body: burstBody("zipper", batchN, "focus-fastest", "us-west-1b")}
	if stream.Intn(2) == 0 {
		return [2]request{hybrid, focus}
	}
	return [2]request{focus, hybrid}
}

// closedLoop runs batchClients clients, each sending rounds back to back
// until d has passed (at least one round each). Every client finishes the
// round it is in, so no burst is cut short; throughput is therefore summed
// per client over that client's own elapsed time. It returns the window and
// the wall time of each round (the batch workload's operation).
func (s *served) closedLoop(seed uint64, d time.Duration, tr *tracer, reqBase int) (window, samples, float64) {
	var (
		w       window
		mu      sync.Mutex
		wg      sync.WaitGroup
		rounds  samples
		invPerS float64
	)
	start := time.Now()
	for c := 0; c < batchClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := rng.New(seed).Split(fmt.Sprintf("bench-batch-%d", c))
			var done int
			for i := 0; ; i++ {
				t0 := time.Now()
				for j, r := range batchRound(stream) {
					reqID := 0
					if tr != nil {
						reqID = reqBase + (i*batchClients+c)*2 + j
					}
					done += s.send(r, time.Now(), reqID, tr, &mu, &w)
				}
				mu.Lock()
				rounds = append(rounds, ms(time.Since(t0)))
				mu.Unlock()
				if time.Since(start) >= d {
					break
				}
			}
			mu.Lock()
			invPerS += float64(done) / time.Since(start).Seconds()
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.maxInflight = batchClients
	return w, rounds, invPerS
}
