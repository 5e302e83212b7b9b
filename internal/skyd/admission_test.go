package skyd

import (
	"encoding/json"
	"net/http"
	"testing"

	"skyfaas/internal/admission"
)

// newAdmissionServer serves the one-zone world with the overload gate on,
// at slots small enough that tests can saturate it with one burst.
func newAdmissionServer(t *testing.T, slots int) *Server {
	return newServer(t, 11, oneZone, nil, Config{Admission: &admission.Config{Slots: slots, TargetUtil: 1}})
}

func TestBurstShedsWith429(t *testing.T) {
	s := newAdmissionServer(t, 5)
	// A burst of 40 wants 40 slots against a 5-slot gate: typed 429.
	res, body := do(t, s, "POST", "/v1/burst", map[string]any{
		"workload": "sha1_hash", "strategy": "baseline", "az": "t1-a", "n": 40,
	})
	env := wantErr(t, res, body, http.StatusTooManyRequests, "overloaded")
	var detail shedDetailJS
	if err := json.Unmarshal(env.Error.Detail, &detail); err != nil {
		t.Fatalf("shed detail: %v: %s", err, env.Error.Detail)
	}
	if detail.Workload != "sha1_hash" || detail.RetryAfterMS <= 0 || detail.Limit != 5 {
		t.Fatalf("shed detail = %+v", detail)
	}
	if env.Error.RetryAfterMS != detail.RetryAfterMS {
		t.Fatalf("envelope retryAfterMS %v != detail %v", env.Error.RetryAfterMS, detail.RetryAfterMS)
	}

	// The gate books the shed and the snapshot reflects it.
	res, body = do(t, s, "GET", "/v1/admission", nil)
	var snap admission.Snapshot
	wantOK(t, res, body, &snap)
	found := false
	for _, fn := range snap.Functions {
		if fn.Workload == "sha1_hash" && fn.Shed == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("shed not booked: %+v", snap.Functions)
	}

	// Disabling the gate lets the same burst through, and completion feeds
	// the service-time estimate.
	res, body = do(t, s, "POST", "/v1/admission", map[string]any{"enabled": false})
	wantOK(t, res, body, nil)
	res, body = do(t, s, "POST", "/v1/burst", map[string]any{
		"workload": "sha1_hash", "strategy": "baseline", "az": "t1-a", "n": 40,
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("disabled-gate burst: status %d: %s", res.StatusCode, body)
	}
	res, body = do(t, s, "GET", "/v1/admission", nil)
	wantOK(t, res, body, &snap)
	for _, fn := range snap.Functions {
		if fn.Workload == "sha1_hash" {
			if fn.Admitted != 1 || fn.Inflight != 0 {
				t.Fatalf("post-burst accounting: %+v", fn)
			}
			if fn.Observed.Count != 1 {
				t.Fatalf("observed service time not recorded: %+v", fn)
			}
		}
	}
}

func TestBurstAdmittedWithinCapacity(t *testing.T) {
	s := newAdmissionServer(t, 200)
	res, body := do(t, s, "POST", "/v1/burst", map[string]any{
		"workload": "sha1_hash", "strategy": "baseline", "az": "t1-a", "n": 20,
	})
	var out burstJS
	wantOK(t, res, body, &out)
	if out.Completed != 20 {
		t.Fatalf("completed %d, want 20", out.Completed)
	}
}
