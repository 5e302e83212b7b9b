package tenant

import (
	"errors"
	"strings"
	"testing"
	"time"

	"skyfaas/internal/metrics"
)

var epoch = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

func newFixtureRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry(Config{})
	for _, tn := range Fixture() {
		if err := r.Create(tn, epoch); err != nil {
			t.Fatalf("Create(%s): %v", tn.ID, err)
		}
	}
	return r
}

func TestFixtureLoadsAndResolves(t *testing.T) {
	r := newFixtureRegistry(t)
	if r.Len() != 3 {
		t.Fatalf("fixture tenants = %d, want 3", r.Len())
	}
	tn, ok := r.Resolve("sk-acme-7f3a")
	if !ok || tn.ID != "acme" {
		t.Fatalf("Resolve(acme key) = %+v, %v", tn, ok)
	}
	if tn.Admin {
		t.Error("acme should not be admin")
	}
	ops, ok := r.Resolve("sk-ops-0001")
	if !ok || !ops.Admin {
		t.Fatalf("ops key should resolve to an admin, got %+v, %v", ops, ok)
	}
	if _, ok := r.Resolve("sk-nope"); ok {
		t.Error("unknown key resolved")
	}
	ids := make([]string, 0, 3)
	for _, tn := range r.List() {
		ids = append(ids, tn.ID)
	}
	if got := strings.Join(ids, ","); got != "acme,burst-lab,ops" {
		t.Errorf("List order = %s", got)
	}
}

func TestCreateValidation(t *testing.T) {
	r := newFixtureRegistry(t)
	cases := []struct {
		name string
		t    Tenant
	}{
		{"empty id", Tenant{Keys: []string{"k"}}},
		{"id with slash", Tenant{ID: "a/b", Keys: []string{"k"}}},
		{"no keys", Tenant{ID: "x"}},
		{"empty key", Tenant{ID: "x", Keys: []string{""}}},
		{"negative quota", Tenant{ID: "x", Keys: []string{"k"}, QuotaSlots: -1}},
		{"rate without cap", Tenant{ID: "x", Keys: []string{"k"}, BudgetPerHour: 1}},
	}
	for _, c := range cases {
		if err := r.Create(c.t, epoch); err == nil {
			t.Errorf("%s: Create accepted %+v", c.name, c.t)
		}
	}
	if err := r.Create(Tenant{ID: "acme", Keys: []string{"k2"}}, epoch); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate ID error = %v, want ErrExists", err)
	}
	if err := r.Create(Tenant{ID: "x", Keys: []string{"sk-acme-7f3a"}}, epoch); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate key error = %v, want ErrDuplicateKey", err)
	}
	// A rejected create must not leak key registrations.
	if _, ok := r.Resolve("k2"); ok {
		t.Error("rejected create leaked a key")
	}
}

func TestDeleteUnregistersKeys(t *testing.T) {
	r := newFixtureRegistry(t)
	if !r.Delete("acme") {
		t.Fatal("Delete(acme) = false")
	}
	if r.Delete("acme") {
		t.Error("second Delete(acme) = true")
	}
	if _, ok := r.Resolve("sk-acme-7f3a"); ok {
		t.Error("deleted tenant's key still resolves")
	}
	// The freed key can be reused.
	if err := r.Create(Tenant{ID: "acme2", Keys: []string{"sk-acme-7f3a"}}, epoch); err != nil {
		t.Errorf("reusing freed key: %v", err)
	}
}

func TestQuotaShedsWithoutGlobalSpend(t *testing.T) {
	r := NewRegistry(Config{})
	if err := r.Create(Tenant{ID: "t", Keys: []string{"k"}, QuotaSlots: 2}, epoch); err != nil {
		t.Fatal(err)
	}
	l1, err := r.Acquire("t", 1, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("t", 1, epoch); err != nil {
		t.Fatal(err)
	}
	_, err = r.Acquire("t", 1, epoch)
	var le *LimitError
	if !errors.As(err, &le) || !errors.Is(err, ErrLimited) {
		t.Fatalf("third acquire = %v, want *LimitError wrapping ErrLimited", err)
	}
	if le.Reason != OverQuota {
		t.Errorf("reason = %s, want %s", le.Reason, OverQuota)
	}
	if le.Inflight != 2 || le.QuotaSlots != 2 {
		t.Errorf("detail = %d/%d, want 2/2", le.Inflight, le.QuotaSlots)
	}
	if le.RetryAfter < 100*time.Millisecond || le.RetryAfter > 5*time.Second {
		t.Errorf("RetryAfter %v outside clamp", le.RetryAfter)
	}
	// Releasing a slot readmits.
	r.Release(l1, epoch, 0)
	if _, err := r.Acquire("t", 1, epoch); err != nil {
		t.Errorf("acquire after release: %v", err)
	}
	u, _ := r.Usage("t", epoch)
	if u.ShedQuota != 1 || u.Admitted != 3 {
		t.Errorf("usage = %+v, want 1 quota shed / 3 admitted", u)
	}
}

func TestWeightedAcquire(t *testing.T) {
	r := NewRegistry(Config{})
	if err := r.Create(Tenant{ID: "t", Keys: []string{"k"}, QuotaSlots: 10}, epoch); err != nil {
		t.Fatal(err)
	}
	l, err := r.Acquire("t", 8, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("t", 4, epoch); !errors.Is(err, ErrLimited) {
		t.Fatalf("8+4 of 10 admitted: %v", err)
	}
	if _, err := r.Acquire("t", 2, epoch); err != nil {
		t.Errorf("8+2 of 10 shed: %v", err)
	}
	r.Release(l, epoch, 0)
	u, _ := r.Usage("t", epoch)
	if u.Inflight != 2 {
		t.Errorf("inflight after release = %d, want 2", u.Inflight)
	}
}

func TestUnlimitedTenant(t *testing.T) {
	r := NewRegistry(Config{})
	if err := r.Create(Tenant{ID: "t", Keys: []string{"k"}}, epoch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := r.Acquire("t", 1, epoch); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
}

func TestBudgetGovernor(t *testing.T) {
	r := NewRegistry(Config{})
	// $1/hour refill, $0.05 cap: two cheap bursts drain it.
	if err := r.Create(Tenant{ID: "t", Keys: []string{"k"}, BudgetPerHour: 1, BudgetCap: 0.05}, epoch); err != nil {
		t.Fatal(err)
	}
	now := epoch
	l, err := r.Acquire("t", 1, now)
	if err != nil {
		t.Fatal(err)
	}
	r.Release(l, now, 0.10) // over-drafts the bucket to -0.05
	_, err = r.Acquire("t", 1, now)
	var le *LimitError
	if !errors.As(err, &le) || le.Reason != BudgetExhausted {
		t.Fatalf("acquire with drained budget = %v, want budget_exhausted", err)
	}
	// -0.05 at $1/hour refills in 3 minutes; the hint clamps to maxRetryAfter.
	if le.RetryAfter != 5*time.Second {
		t.Errorf("RetryAfter = %v, want the 5s clamp", le.RetryAfter)
	}
	if le.BalanceUSD >= 0 {
		t.Errorf("balance = %v, want negative", le.BalanceUSD)
	}
	// After the refill interval the tenant is admitted again.
	now = now.Add(4 * time.Minute)
	if _, err := r.Acquire("t", 1, now); err != nil {
		t.Errorf("acquire after refill: %v", err)
	}
	u, _ := r.Usage("t", now)
	if !u.Metered || u.ShedBudget != 1 || u.SpentUSD != 0.10 {
		t.Errorf("usage = %+v", u)
	}
	if u.BudgetBalanceUSD <= 0 {
		t.Errorf("balance after refill = %v, want positive", u.BudgetBalanceUSD)
	}
}

func TestAcquireUnknownTenant(t *testing.T) {
	r := NewRegistry(Config{})
	if _, err := r.Acquire("ghost", 1, epoch); !errors.Is(err, ErrUnknown) {
		t.Errorf("err = %v, want ErrUnknown", err)
	}
}

func TestReleaseZeroAndDeleted(t *testing.T) {
	r := newFixtureRegistry(t)
	r.Release(Lease{}, epoch, 1) // zero lease: no-op, no panic
	l, err := r.Acquire("acme", 1, epoch)
	if err != nil {
		t.Fatal(err)
	}
	r.Delete("acme")
	r.Release(l, epoch, 1) // tenant gone: no-op, no panic
}

func TestMetricsRollup(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRegistry(Config{Metrics: reg})
	if err := r.Create(Tenant{ID: "t", Keys: []string{"k"}, QuotaSlots: 1}, epoch); err != nil {
		t.Fatal(err)
	}
	l, _ := r.Acquire("t", 1, epoch)
	if _, err := r.Acquire("t", 1, epoch); !errors.Is(err, ErrLimited) {
		t.Fatal("expected quota shed")
	}
	r.Release(l, epoch, 0.25)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`sky_tenant_admitted_total{tenant="t"} 1`,
		`sky_tenant_shed_total{reason="tenant_over_quota",tenant="t"} 1`,
		`sky_tenant_inflight{tenant="t"} 0`,
		`sky_tenant_spent_usd{tenant="t"} 0.25`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q\n%s", want, text)
		}
	}
}

func TestLoadJSON(t *testing.T) {
	src := `[
	  {"id": "a", "name": "A", "keys": ["ka"], "quotaSlots": 4},
	  {"id": "b", "keys": ["kb"], "admin": true, "budgetPerHourUSD": 2, "budgetCapUSD": 1}
	]`
	ts, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].ID != "a" || ts[0].QuotaSlots != 4 || !ts[1].Admin {
		t.Fatalf("Load = %+v", ts)
	}
	if _, err := Load(strings.NewReader(`[{"id": "", "keys": ["k"]}]`)); err == nil {
		t.Error("Load accepted empty ID")
	}
	if _, err := Load(strings.NewReader(`[{"id": "a", "keys": ["k"], "bogus": 1}]`)); err == nil {
		t.Error("Load accepted unknown field")
	}
}

// TestLoadRejectsTrailingBytes: a tenants file is one JSON array. Anything
// after it but whitespace is an error, not silently dropped.
func TestLoadRejectsTrailingBytes(t *testing.T) {
	const one = `[{"id": "a", "keys": ["ka"]}]`
	for _, tail := range []string{"", "\n", " \r\n\t "} {
		if _, err := Load(strings.NewReader(one + tail)); err != nil {
			t.Errorf("Load(%q): %v", one+tail, err)
		}
	}
	for _, tail := range []string{`[{"id": "b", "keys": ["kb"]}]`, " []", "x", "]", " 1", `"`} {
		if _, err := Load(strings.NewReader(one + tail)); err == nil {
			t.Errorf("Load accepted %q", one+tail)
		}
	}
}
