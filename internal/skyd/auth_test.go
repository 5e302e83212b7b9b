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
	"skyfaas/internal/metrics"
	"skyfaas/internal/sim"
	"skyfaas/internal/tenant"
	"skyfaas/internal/warmpool"
)

// Fixture keys (see tenant.Fixture): ops is the operator, acme has a
// 32-slot quota and a metered budget, burst-lab an 8-slot quota.
const (
	opsKey  = "sk-ops-0001"
	acmeKey = "sk-acme-7f3a"
	labKey  = "sk-lab-21c9"
)

// newAuthServer serves the one-zone world with cfg and the fixture tenant
// registry.
func newAuthServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.Tenants = tenant.NewRegistry(tenant.Config{Metrics: metrics.Default()})
	for _, tn := range tenant.Fixture() {
		if err := cfg.Tenants.Create(tn, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	return newServer(t, 13, oneZone, nil, cfg)
}

func TestAuthRequired(t *testing.T) {
	s := newAuthServer(t, Config{})
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
		res, body := do(t, s, "GET", path, nil)
		wantOK(t, res, body, nil)
	}
}

func TestXSkyKeyHeader(t *testing.T) {
	s := newAuthServer(t, Config{})
	req := httptest.NewRequest("GET", "/v1/zones", nil)
	req.Header.Set("X-Sky-Key", acmeKey)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("X-Sky-Key request status %d: %s", rec.Code, rec.Body.Bytes())
	}
}

func TestAdminOnlyRoutes(t *testing.T) {
	s := newAuthServer(t, Config{})
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
	s := newAuthServer(t, Config{})
	// List shows the fixture, keys redacted.
	res, body := doKey(t, s, "GET", "/v1/tenants", nil, opsKey)
	var list struct {
		Tenants []struct {
			ID      string `json:"id"`
			NumKeys int    `json:"numKeys"`
		} `json:"tenants"`
	}
	wantOK(t, res, body, &list)
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
	res, body = doKey(t, s, "GET", "/v1/zones", nil, "sk-new-1")
	wantOK(t, res, body, nil)

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
	wantOK(t, res, body, nil)
	res, body = doKey(t, s, "GET", "/v1/zones", nil, "sk-new-1")
	wantErr(t, res, body, http.StatusForbidden, "bad_key")
	res, body = doKey(t, s, "DELETE", "/v1/tenants/newco", nil, opsKey)
	wantErr(t, res, body, http.StatusNotFound, "unknown_tenant")
}

func TestTenantBudgetExhausted(t *testing.T) {
	s := newAuthServer(t, Config{})
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
	wantOK(t, res, body, nil)
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
	s := newAuthServer(t, Config{})
	// Self-read is allowed.
	res, body := doKey(t, s, "GET", "/v1/tenants/acme/usage", nil, acmeKey)
	var u tenant.Usage
	wantOK(t, res, body, &u)
	if u.Tenant != "acme" || !u.Metered || u.QuotaSlots != 32 {
		t.Fatalf("usage = %+v", u)
	}
	// Cross-tenant reads need an operator.
	res, body = doKey(t, s, "GET", "/v1/tenants/burst-lab/usage", nil, acmeKey)
	wantErr(t, res, body, http.StatusForbidden, "forbidden")
	res, body = doKey(t, s, "GET", "/v1/tenants/burst-lab/usage", nil, opsKey)
	wantOK(t, res, body, nil)
	res, body = doKey(t, s, "GET", "/v1/tenants/ghost/usage", nil, opsKey)
	wantErr(t, res, body, http.StatusNotFound, "unknown_tenant")
}

func TestTenantQuotaShedsBeforeGlobalGate(t *testing.T) {
	// Global gate has plenty of room (200 slots, TargetUtil 1); burst-lab's
	// quota is only 8, so an 8+ burst sheds with the tenant reason and the
	// global gate never books it.
	s := newAuthServer(t, Config{Admission: &admission.Config{Slots: 200, TargetUtil: 1}})
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
	res, body = doKey(t, s, "GET", "/v1/tenants/burst-lab/usage", nil, labKey)
	wantOK(t, res, body, &u)
	if u.Admitted != 1 || u.ShedQuota != 1 || u.SpentUSD <= 0 || u.Inflight != 0 {
		t.Fatalf("usage after bursts = %+v", u)
	}
}

// TestTenantUsageIncludesWarmPoolSpend drives a real PreWarm against the
// simulated cloud under the runtime's account and checks the platform's
// warm-pool spend surfaces on the tenant usage rollup.
func TestTenantUsageIncludesWarmPoolSpend(t *testing.T) {
	s := newAuthServer(t, Config{WarmPool: &warmpool.Config{Zones: []string{"t1-a"}, Mode: warmpool.ModeOff}})
	var cost float64
	err := s.Exec(func(*sim.Proc) (err error) {
		c := s.Runtime().Cloud()
		if _, err := c.Deploy("t1-a", "fn", cloudsim.DeployConfig{
			MemoryMB: 2048,
			Behavior: cloudsim.SleepBehavior{D: 50 * time.Millisecond},
		}); err != nil {
			return err
		}
		az, _ := c.AZ("t1-a")
		_, cost, err = az.PreWarm("fn", 2, s.Runtime().Client().Account())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("PreWarm cost = %f, want positive", cost)
	}
	res, body := doKey(t, s, "GET", "/v1/tenants/acme/usage", nil, acmeKey)
	var u tenant.Usage
	wantOK(t, res, body, &u)
	if u.WarmPoolUSD != cost {
		t.Fatalf("warmPoolUSD = %f, want the provisioning cost %f", u.WarmPoolUSD, cost)
	}
}
