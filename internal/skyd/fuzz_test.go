package skyd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"skyfaas/internal/admission"
)

// FuzzBurst posts arbitrary bodies to /v1/burst as one of the fixture's
// quota'd tenants (acme, or burst-lab when lab is set) on a server with
// authentication and the admission gate on. Whatever the body, the answer
// is never a 5xx, every other failure is the documented envelope with a
// Retry-After hint on a 429 that agrees with retryAfterMS, and the request
// gives back every tenant lease and gate slot it took. Both quotas are at
// most 32 slots, so no input simulates more than 32 invocations. The seed
// corpus under testdata/fuzz/FuzzBurst runs under plain `go test`.
func FuzzBurst(f *testing.F) {
	s := newAuthServerAt(f, &admission.Config{Slots: 24, TargetUtil: 1}, 5e6)
	f.Fuzz(func(t *testing.T, body []byte, lab bool) {
		key := acmeKey
		if lab {
			key = labKey
		}
		req := httptest.NewRequest("POST", "/v1/burst", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+key)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		res := rec.Result()
		if res.StatusCode >= 500 {
			t.Fatalf("status %d for %q: %s", res.StatusCode, body, rec.Body.Bytes())
		}
		if res.StatusCode != http.StatusOK {
			env := checkEnvelope(t, res, rec.Body.Bytes())
			if res.StatusCode == http.StatusTooManyRequests && env.Error.RetryAfterMS <= 0 {
				t.Fatalf("429 without a retry hint: %s", rec.Body.Bytes())
			}
		}
		if snap := s.gate.Snapshot(); snap.Inflight != 0 {
			t.Fatalf("admission inflight %d after %q", snap.Inflight, body)
		}
		for _, u := range s.tenants.Usages(time.Now()) {
			if u.Inflight != 0 {
				t.Fatalf("tenant %s holds %d leases after %q", u.Tenant, u.Inflight, body)
			}
		}
	})
}
