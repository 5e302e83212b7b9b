package skyd

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"skyfaas/internal/admission"
)

// TestConservationUnderInterleavings drives a paced server from several
// goroutines through a seeded random mix of everything a burst can end in —
// success, tenant shed, admission shed, an unknown-AZ error from inside the
// simulation, a command landing while the paced loop is in a wait — and,
// in half the rounds, closes the server while bursts are in flight. Whatever
// the interleaving, every request must return (no Exec hangs), the slots it
// took must come back (admission inflight and every tenant's leases end at
// zero), and money must be conserved: what the tenants were billed adds up
// to what the simulated cloud metered since the server was built.
func TestConservationUnderInterleavings(t *testing.T) {
	const workers, opsPerWorker = 4, 40
	var mu sync.Mutex
	seen := map[int]int{} // status -> count, over all rounds
	var billedTotal float64
	for round := 0; round < 6; round++ {
		closeMidBurst := round%2 == 1
		// Speedup 1000 so that bursts span real paced waits (a few wall
		// milliseconds) instead of finishing before the next one starts.
		s := newAuthServerAt(t, &admission.Config{Slots: 24, TargetUtil: 1}, 1000)
		meter := s.rt.Cloud().Meter()
		metered := meter.GrandTotal()

		status := func(key string, method, path string, body any) int {
			buf := new(bytes.Buffer)
			if body != nil {
				if err := json.NewEncoder(buf).Encode(body); err != nil {
					t.Error(err)
					return 0
				}
			}
			req := httptest.NewRequest(method, path, buf)
			req.Header.Set("Authorization", "Bearer "+key)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			return rec.Code
		}
		burst := func(az string, n int) map[string]any {
			return map[string]any{"workload": "sha1_hash", "strategy": "baseline", "az": az, "n": n}
		}
		// Each op returns the statuses it may legitimately end in while the
		// server is open; once it is closing, 503 joins every set.
		ops := []func(r *rand.Rand) (got int, want []int){
			func(r *rand.Rand) (int, []int) { // success, unless a neighbour holds the slots
				return status(acmeKey, "POST", "/v1/burst", burst("t1-a", 1+r.Intn(4))), []int{200, 429}
			},
			func(*rand.Rand) (int, []int) { // tenant shed: burst-lab's quota is 8
				return status(labKey, "POST", "/v1/burst", burst("t1-a", 40)), []int{429}
			},
			func(*rand.Rand) (int, []int) { // admission shed: inside acme's 32, over the gate's 24
				return status(acmeKey, "POST", "/v1/burst", burst("t1-a", 30)), []int{429}
			},
			func(*rand.Rand) (int, []int) { // error from inside the simulation, slots held across it
				return status(acmeKey, "POST", "/v1/burst", burst("nowhere-1z", 2)), []int{404, 429}
			},
			func(r *rand.Rand) (int, []int) { // a command that finds the loop in a paced wait
				time.Sleep(time.Duration(1+r.Intn(3)) * time.Millisecond)
				return status(opsKey, "GET", "/v1/healthz", nil), []int{200}
			},
		}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(r *rand.Rand) {
				defer wg.Done()
				for i := 0; i < opsPerWorker; i++ {
					got, want := ops[r.Intn(len(ops))](r)
					if closeMidBurst {
						want = append(want, http.StatusServiceUnavailable)
					}
					ok := false
					for _, code := range want {
						ok = ok || got == code
					}
					if !ok {
						t.Errorf("round %d: status %d, want one of %v", round, got, want)
					}
					mu.Lock()
					seen[got]++
					mu.Unlock()
				}
			}(rand.New(rand.NewSource(int64(round*workers + w))))
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		if closeMidBurst {
			time.Sleep(time.Duration(3+4*round) * time.Millisecond)
			s.Close()
		}
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: requests still blocked 30s on (closeMidBurst=%v): an Exec hung", round, closeMidBurst)
		}
		s.Close()

		snap := s.gate.Snapshot()
		if snap.Inflight != 0 {
			t.Errorf("round %d: admission inflight %d after quiescence, want 0", round, snap.Inflight)
		}
		for _, fn := range snap.Functions {
			if fn.Inflight != 0 {
				t.Errorf("round %d: admission inflight for %s is %d, want 0", round, fn.Workload, fn.Inflight)
			}
		}
		var billed float64
		for _, u := range s.tenants.Usages(time.Now()) {
			if u.Inflight != 0 {
				t.Errorf("round %d: tenant %s still holds %d leases", round, u.Tenant, u.Inflight)
			}
			billed += u.SpentUSD
		}
		if grown := meter.GrandTotal() - metered; math.Abs(billed-grown) > 1e-12 {
			t.Errorf("round %d: tenants billed %.12f USD, the cloud metered %.12f USD", round, billed, grown)
		}
		billedTotal += billed
	}
	if billedTotal <= 0 {
		t.Error("no burst was billed, so money conservation was never exercised")
	}
	// The mix must have reached every ending it was written to reach.
	for _, code := range []int{200, 404, 429, 503} {
		if seen[code] == 0 {
			t.Errorf("no request ended in %d (statuses seen: %v)", code, seen)
		}
	}
	t.Logf("statuses over all rounds: %v", seen)
}
