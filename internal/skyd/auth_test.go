package skyd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/cloudsim"
	"skyfaas/internal/core"
	"skyfaas/internal/cpu"
	"skyfaas/internal/geo"
	"skyfaas/internal/sampler"
	"skyfaas/internal/tenant"
)

// Fixture keys (see tenant.Fixture): ops is the operator, acme has a
// 32-slot quota and a metered budget, burst-lab an 8-slot quota.
const (
	opsKey  = "sk-ops-0001"
	acmeKey = "sk-acme-7f3a"
	labKey  = "sk-lab-21c9"
)

// newAuthServer builds a single-zone server with the fixture tenant
// registry and (optionally) the global admission gate, at very high pacing.
func newAuthServer(t *testing.T, adm *admission.Config) *Server {
	t.Helper()
	return newAuthServerAt(t, adm, 5e6)
}

// newAuthServerAt is newAuthServer at a chosen speedup.
func newAuthServerAt(t testing.TB, adm *admission.Config, speedup float64) *Server {
	t.Helper()
	rt, err := core.New(core.Config{
		Seed: 13,
		Catalog: []cloudsim.RegionSpec{{
			Provider: cloudsim.AWS, Name: "t1", Loc: geo.Coord{Lat: 40, Lon: -80},
			AZs: []cloudsim.AZSpec{
				{Name: "t1-a", PoolFIs: 2048,
					Mix: map[cpu.Kind]float64{cpu.Xeon25: 1}},
			},
		}},
		SamplerCfg: sampler.Config{
			Endpoints: 30, PollSize: 84, Branch: 4,
			Sleep: 100 * time.Millisecond, InterPollPause: 500 * time.Millisecond,
		},
		SkipMesh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry(tenant.Config{Metrics: rt.Metrics()})
	for _, tn := range tenant.Fixture() {
		if err := reg.Create(tn, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Runtime: rt, Speedup: speedup, Admission: adm, Tenants: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestAuthRequired(t *testing.T) {
	s := newAuthServer(t, nil)
	// No key: 401 missing_key on every authenticated route.
	res, body := do(t, s, "GET", "/v1/zones", nil)
	wantErr(t, res, body, http.StatusUnauthorized, "missing_key")
	// Wrong key: 403 bad_key.
	res, body = doKey(t, s, "GET", "/v1/zones", nil, "sk-wrong")
	wantErr(t, res, body, http.StatusForbidden, "bad_key")
	// Malformed Authorization scheme counts as missing.
	req := httptest.NewRequest("GET", "/v1/zones", nil)
	req.Header.Set("Authorization", "Basic dXNlcjpwYXNz")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	badRes := rec.Result()
	defer badRes.Body.Close()
	wantErr(t, badRes, rec.Body.Bytes(), http.StatusUnauthorized, "missing_key")
	// A valid key is admitted.
	res, _ = doKey(t, s, "GET", "/v1/zones", nil, acmeKey)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("keyed request status %d", res.StatusCode)
	}
	// Health stays open without a key; so do the observability endpoints.
	for _, path := range []string{"/v1/healthz", "/healthz", "/metrics", "/metrics.json"} {
		if res, body := do(t, s, "GET", path, nil); res.StatusCode != http.StatusOK {
			t.Errorf("%s without key: status %d: %s", path, res.StatusCode, body)
		}
	}
}

func TestXSkyKeyHeader(t *testing.T) {
	s := newAuthServer(t, nil)
	req := httptest.NewRequest("GET", "/v1/zones", nil)
	req.Header.Set("X-Sky-Key", acmeKey)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("X-Sky-Key request status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

func TestAdminOnlyRoutes(t *testing.T) {
	s := newAuthServer(t, nil)
	// A workload tenant may not administer tenants, faults, refresh, or
	// admission.
	for _, c := range []struct {
		method, path string
		body         any
	}{
		{"GET", "/v1/tenants", nil},
		{"POST", "/v1/tenants", map[string]any{"id": "x", "keys": []string{"kx"}}},
		{"DELETE", "/v1/tenants/acme", nil},
		{"POST", "/v1/faults", map[string]any{"scenario": "degraded", "az": "t1-a"}},
		{"POST", "/v1/refresh", map[string]any{"mode": "age"}},
		{"POST", "/v1/admission", map[string]any{"slots": 10}},
	} {
		res, body := doKey(t, s, c.method, c.path, c.body, acmeKey)
		wantErr(t, res, body, http.StatusForbidden, "not_admin")
	}
}

func TestTenantCRUD(t *testing.T) {
	s := newAuthServer(t, nil)
	// List shows the fixture, keys redacted.
	res, body := doKey(t, s, "GET", "/v1/tenants", nil, opsKey)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("list status %d: %s", res.StatusCode, body)
	}
	var list struct {
		Tenants []struct {
			ID      string `json:"id"`
			NumKeys int    `json:"numKeys"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tenants) != 3 || list.Tenants[0].ID != "acme" || list.Tenants[0].NumKeys != 1 {
		t.Fatalf("tenants = %+v", list.Tenants)
	}
	if bytes.Contains(body, []byte("sk-acme")) {
		t.Fatal("tenant list leaked an API key")
	}

	// Create, then the new key works immediately.
	res, body = doKey(t, s, "POST", "/v1/tenants", map[string]any{
		"id": "newco", "name": "NewCo", "keys": []string{"sk-new-1"}, "quotaSlots": 4,
	}, opsKey)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("create status %d: %s", res.StatusCode, body)
	}
	if res, _ := doKey(t, s, "GET", "/v1/zones", nil, "sk-new-1"); res.StatusCode != http.StatusOK {
		t.Fatalf("new key status %d", res.StatusCode)
	}

	// Duplicate ID and duplicate key are conflicts; a bad record is a 400.
	res, body = doKey(t, s, "POST", "/v1/tenants", map[string]any{
		"id": "newco", "keys": []string{"sk-other"},
	}, opsKey)
	wantErr(t, res, body, http.StatusConflict, "tenant_exists")
	res, body = doKey(t, s, "POST", "/v1/tenants", map[string]any{
		"id": "other", "keys": []string{"sk-new-1"},
	}, opsKey)
	wantErr(t, res, body, http.StatusConflict, "duplicate_key")
	res, body = doKey(t, s, "POST", "/v1/tenants", map[string]any{
		"id": "nokeys",
	}, opsKey)
	wantErr(t, res, body, http.StatusBadRequest, "bad_tenant")

	// Delete revokes the key.
	res, body = doKey(t, s, "DELETE", "/v1/tenants/newco", nil, opsKey)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d: %s", res.StatusCode, body)
	}
	res, body = doKey(t, s, "GET", "/v1/zones", nil, "sk-new-1")
	wantErr(t, res, body, http.StatusForbidden, "bad_key")
	res, body = doKey(t, s, "DELETE", "/v1/tenants/newco", nil, opsKey)
	wantErr(t, res, body, http.StatusNotFound, "unknown_tenant")
}

func TestTenantBudgetExhausted(t *testing.T) {
	s := newAuthServer(t, nil)
	// A tenant with a microscopic budget: the first burst's cost overdrafts
	// the bucket, the second sheds 429 budget_exhausted until it refills.
	res, body := doKey(t, s, "POST", "/v1/tenants", map[string]any{
		"id": "poor", "keys": []string{"sk-poor-1"},
		"budgetPerHourUSD": 1e-6, "budgetCapUSD": 1e-6,
	}, opsKey)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("create status %d: %s", res.StatusCode, body)
	}
	burst := map[string]any{"workload": "sha1_hash", "strategy": "baseline", "az": "t1-a", "n": 5}
	res, body = doKey(t, s, "POST", "/v1/burst", burst, "sk-poor-1")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("first burst status %d: %s", res.StatusCode, body)
	}
	res, body = doKey(t, s, "POST", "/v1/burst", burst, "sk-poor-1")
	env := wantErr(t, res, body, http.StatusTooManyRequests, "budget_exhausted")
	var detail struct {
		BalanceUSD float64 `json:"balanceUSD"`
	}
	if err := json.Unmarshal(env.Error.Detail, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.BalanceUSD >= 0 {
		t.Fatalf("balance = %v, want negative", detail.BalanceUSD)
	}
}

func TestTenantUsageVisibility(t *testing.T) {
	s := newAuthServer(t, nil)
	// Self-read is allowed.
	res, body := doKey(t, s, "GET", "/v1/tenants/acme/usage", nil, acmeKey)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("self usage status %d: %s", res.StatusCode, body)
	}
	var u tenant.Usage
	if err := json.Unmarshal(body, &u); err != nil {
		t.Fatal(err)
	}
	if u.Tenant != "acme" || !u.Metered || u.QuotaSlots != 32 {
		t.Fatalf("usage = %+v", u)
	}
	// Cross-tenant reads need an operator.
	res, body = doKey(t, s, "GET", "/v1/tenants/burst-lab/usage", nil, acmeKey)
	wantErr(t, res, body, http.StatusForbidden, "forbidden")
	if res, _ := doKey(t, s, "GET", "/v1/tenants/burst-lab/usage", nil, opsKey); res.StatusCode != http.StatusOK {
		t.Fatalf("admin cross-read status %d", res.StatusCode)
	}
	res, body = doKey(t, s, "GET", "/v1/tenants/ghost/usage", nil, opsKey)
	wantErr(t, res, body, http.StatusNotFound, "unknown_tenant")
}

func TestTenantQuotaShedsBeforeGlobalGate(t *testing.T) {
	// Global gate has plenty of room (200 slots, TargetUtil 1); burst-lab's
	// quota is only 8, so an 8+ burst sheds with the tenant reason and the
	// global gate never books it.
	s := newAuthServer(t, &admission.Config{Slots: 200, TargetUtil: 1})
	res, body := doKey(t, s, "POST", "/v1/burst", map[string]any{
		"workload": "sha1_hash", "strategy": "baseline", "az": "t1-a", "n": 40,
	}, labKey)
	env := wantErr(t, res, body, http.StatusTooManyRequests, "tenant_over_quota")
	var detail struct {
		Tenant     string `json:"tenant"`
		QuotaSlots int    `json:"quotaSlots"`
	}
	if err := json.Unmarshal(env.Error.Detail, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Tenant != "burst-lab" || detail.QuotaSlots != 8 {
		t.Fatalf("detail = %+v", detail)
	}
	// The global gate saw nothing: no admitted, no shed for the workload.
	var snap admission.Snapshot
	if _, body := doKey(t, s, "GET", "/v1/admission", nil, opsKey); true {
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
	}
	for _, fn := range snap.Functions {
		if fn.Workload == "sha1_hash" {
			t.Fatalf("tenant shed leaked into the global gate: %+v", fn)
		}
	}
	// A burst inside the quota is admitted, billed, and visible in usage.
	res, body = doKey(t, s, "POST", "/v1/burst", map[string]any{
		"workload": "sha1_hash", "strategy": "baseline", "az": "t1-a", "n": 8,
	}, labKey)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("in-quota burst status %d: %s", res.StatusCode, body)
	}
	var u tenant.Usage
	_, body = doKey(t, s, "GET", "/v1/tenants/burst-lab/usage", nil, labKey)
	if err := json.Unmarshal(body, &u); err != nil {
		t.Fatal(err)
	}
	if u.Admitted != 1 || u.ShedQuota != 1 || u.SpentUSD <= 0 || u.Inflight != 0 {
		t.Fatalf("usage after bursts = %+v", u)
	}
}
