// Package tenant is skyd's account model: the identity, quota, and billing
// layer that turns the single-tenant sim harness into a shared control
// plane. A Registry maps API keys to tenants and enforces two per-tenant
// governors in front of the global admission gate:
//
//   - a concurrency quota (QuotaSlots): a tenant over its own slots sheds
//     with a typed 429 *before* touching global capacity, so one tenant's
//     storm cannot starve another's steady traffic;
//   - a USD budget (BudgetPerHour/BudgetCap): a control.Budget token
//     bucket — balance accrues over time up to the cap, each served burst
//     debits its actual cost, and a tenant whose balance is exhausted
//     sheds until the bucket climbs back above zero.
//
// Determinism contract: like internal/admission, the registry never reads
// the wall clock — every method that needs time takes an explicit now.
// Under skyd the callers pass real time; under the simulation (EX-10) they
// pass virtual time, and the same seed replays bit-identically. All state
// is mutex-guarded and safe for concurrent use from HTTP handlers.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"skyfaas/internal/control"
	"skyfaas/internal/metrics"
)

// Tenant is one account: who may call skyd, how much concurrency it may
// hold, and how fast its spending allowance refills.
type Tenant struct {
	// ID is the stable account identifier; it appears in URLs
	// (/v1/tenants/{id}/usage) and metric labels, so it must be non-empty
	// and free of spaces and slashes.
	ID string `json:"id"`
	// Name is the display name.
	Name string `json:"name"`
	// Keys are the API keys resolving to this tenant. Every key must be
	// unique across the registry.
	Keys []string `json:"keys"`
	// Admin marks the account as a control-plane operator: tenant CRUD and
	// other tenants' usage are admin-only.
	Admin bool `json:"admin,omitempty"`
	// QuotaSlots is the tenant's concurrent-invocation ceiling (0 = no
	// per-tenant concurrency limit).
	QuotaSlots int `json:"quotaSlots,omitempty"`
	// BudgetPerHour is the USD refill rate of the tenant's spending bucket
	// and BudgetCap its ceiling. Both zero means unmetered spend.
	BudgetPerHour float64 `json:"budgetPerHourUSD,omitempty"`
	BudgetCap     float64 `json:"budgetCapUSD,omitempty"`
}

// Validate reports whether the tenant record is usable.
func (t Tenant) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("tenant: empty id")
	}
	if strings.ContainsAny(t.ID, " /") {
		return fmt.Errorf("tenant: id %q contains spaces or slashes", t.ID)
	}
	if len(t.Keys) == 0 {
		return fmt.Errorf("tenant %s: no API keys", t.ID)
	}
	for _, k := range t.Keys {
		if k == "" {
			return fmt.Errorf("tenant %s: empty API key", t.ID)
		}
	}
	if t.QuotaSlots < 0 {
		return fmt.Errorf("tenant %s: negative quota %d", t.ID, t.QuotaSlots)
	}
	if t.BudgetPerHour < 0 || t.BudgetCap < 0 {
		return fmt.Errorf("tenant %s: negative budget", t.ID)
	}
	if t.metered() && t.BudgetCap == 0 {
		return fmt.Errorf("tenant %s: budget rate without a cap (the bucket would start empty)", t.ID)
	}
	return nil
}

// metered reports whether the tenant carries a spend governor.
func (t Tenant) metered() bool { return t.BudgetPerHour > 0 || t.BudgetCap > 0 }

// Registry errors. ErrLimited is the sentinel every per-tenant shed wraps;
// errors.Is(err, ErrLimited) identifies quota/budget rejections regardless
// of detail.
var (
	ErrLimited = errors.New("tenant: limited")
	// ErrUnknown is returned for operations addressed to a tenant ID the
	// registry does not hold.
	ErrUnknown = errors.New("tenant: unknown tenant")
	// ErrExists is returned by Create when the ID is already registered.
	ErrExists = errors.New("tenant: tenant exists")
	// ErrDuplicateKey is returned by Create when one of the new tenant's
	// keys already resolves to another account.
	ErrDuplicateKey = errors.New("tenant: duplicate API key")
)

// Reason classifies a per-tenant shed.
type Reason string

// The per-tenant shed reasons; their values double as API error codes.
const (
	// OverQuota: the tenant holds its full concurrency quota.
	OverQuota Reason = "tenant_over_quota"
	// BudgetExhausted: the tenant's spending bucket is at or below zero.
	BudgetExhausted Reason = "budget_exhausted"
)

// LimitError is the typed rejection a per-tenant governor returns. It
// carries everything the HTTP layer needs for a 429: the shed reason, the
// Retry-After hint, and the tenant's load/budget picture at rejection time.
type LimitError struct {
	Tenant     string
	Reason     Reason
	RetryAfter time.Duration
	Inflight   int
	QuotaSlots int
	BalanceUSD float64
}

// Error implements error.
func (e *LimitError) Error() string {
	switch e.Reason {
	case BudgetExhausted:
		return fmt.Sprintf("tenant %s: budget exhausted (balance %.4f USD), retry after %v",
			e.Tenant, e.BalanceUSD, e.RetryAfter)
	default:
		return fmt.Sprintf("tenant %s: over quota: %d/%d slots in use, retry after %v",
			e.Tenant, e.Inflight, e.QuotaSlots, e.RetryAfter)
	}
}

// Unwrap ties the typed error to the ErrLimited sentinel.
func (e *LimitError) Unwrap() error { return ErrLimited }

// Lease is proof of a per-tenant admission; pass it back to Release exactly
// once. The zero Lease is a no-op.
type Lease struct {
	id     string
	weight int
}

// Tenant returns the account the lease was granted to.
func (l Lease) Tenant() string { return l.id }

// Weight returns how many slots the lease holds.
func (l Lease) Weight() int { return l.weight }

// minRetryAfter / maxRetryAfter clamp the Retry-After hint attached to
// per-tenant sheds, the same window the admission gate's hints use.
const (
	minRetryAfter = 100 * time.Millisecond
	maxRetryAfter = 5 * time.Second
)

// Config parameterizes a Registry.
type Config struct {
	// Metrics receives the sky_tenant_* series; nil disables them.
	Metrics *metrics.Registry
}

// account is one tenant's live state: the record plus quota/budget
// bookkeeping and rollup counters.
type account struct {
	t        Tenant
	inflight int
	admitted uint64
	shed     map[Reason]uint64
	spent    float64
	budget   *control.Budget // nil when unmetered

	mAdmitted *metrics.Counter
	mShed     map[Reason]*metrics.Counter
	mInflight *metrics.Gauge
	mSpent    *metrics.Gauge
}

// Registry holds the accounts and enforces their governors. Construct with
// NewRegistry; the zero value is not usable.
type Registry struct {
	mu       sync.Mutex
	cfg      Config
	accounts map[string]*account
	byKey    map[string]string // API key -> tenant ID
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:      cfg,
		accounts: make(map[string]*account),
		byKey:    make(map[string]string),
	}
}

// Create registers a tenant. The budget bucket (if metered) starts full at
// now. Fails with ErrExists on a duplicate ID and ErrDuplicateKey when a
// key already resolves elsewhere.
func (r *Registry) Create(t Tenant, now time.Time) error {
	if err := t.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.accounts[t.ID]; ok {
		return fmt.Errorf("%w: %q", ErrExists, t.ID)
	}
	seen := make(map[string]bool, len(t.Keys))
	for _, k := range t.Keys {
		if owner, ok := r.byKey[k]; ok {
			return fmt.Errorf("%w: already held by %q", ErrDuplicateKey, owner)
		}
		if seen[k] {
			return fmt.Errorf("%w: repeated within %q", ErrDuplicateKey, t.ID)
		}
		seen[k] = true
	}
	a := &account{
		t:    t,
		shed: make(map[Reason]uint64),
	}
	if t.metered() {
		a.budget = control.NewBudget(t.BudgetPerHour, t.BudgetCap, now)
	}
	if reg := r.cfg.Metrics; reg != nil {
		lbl := metrics.L("tenant", t.ID)
		a.mAdmitted = reg.Counter("sky_tenant_admitted_total",
			"Requests admitted past the tenant's governors.", lbl)
		a.mShed = map[Reason]*metrics.Counter{
			OverQuota: reg.Counter("sky_tenant_shed_total",
				"Requests shed by a per-tenant governor, by reason.", lbl, metrics.L("reason", string(OverQuota))),
			BudgetExhausted: reg.Counter("sky_tenant_shed_total",
				"Requests shed by a per-tenant governor, by reason.", lbl, metrics.L("reason", string(BudgetExhausted))),
		}
		a.mInflight = reg.Gauge("sky_tenant_inflight",
			"Requests currently holding tenant quota slots.", lbl)
		a.mSpent = reg.Gauge("sky_tenant_spent_usd",
			"Cumulative USD billed to the tenant.", lbl)
	}
	for _, k := range t.Keys {
		r.byKey[k] = t.ID
	}
	r.accounts[t.ID] = a
	return nil
}

// Delete removes a tenant and its keys; it reports whether the ID existed.
// In-flight leases belonging to the deleted tenant release into the void
// harmlessly.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.accounts[id]
	if !ok {
		return false
	}
	for _, k := range a.t.Keys {
		delete(r.byKey, k)
	}
	delete(r.accounts, id)
	return true
}

// List returns every tenant record, sorted by ID.
func (r *Registry) List() []Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Tenant, 0, len(r.accounts))
	for _, a := range r.accounts {
		out = append(out, a.t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of registered tenants.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.accounts)
}

// Resolve maps an API key to its tenant.
func (r *Registry) Resolve(key string) (Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.byKey[key]
	if !ok {
		return Tenant{}, false
	}
	return r.accounts[id].t, true
}

// Acquire asks the tenant's governors for weight concurrent slots at time
// now. On success the returned lease must be released with Release. On a
// quota or budget rejection it returns a *LimitError (wrapping ErrLimited)
// and holds nothing — the point of the layering is that a tenant over its
// own limits never consumes global admission capacity.
func (r *Registry) Acquire(id string, weight int, now time.Time) (Lease, error) {
	if weight < 1 {
		weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.accounts[id]
	if !ok {
		return Lease{}, fmt.Errorf("%w: %q", ErrUnknown, id)
	}
	if q := a.t.QuotaSlots; q > 0 && a.inflight+weight > q {
		return Lease{}, r.shedLocked(a, OverQuota, now)
	}
	if a.budget != nil && !a.budget.Allows(now) {
		return Lease{}, r.shedLocked(a, BudgetExhausted, now)
	}
	a.inflight += weight
	a.admitted++
	a.mAdmitted.Inc()
	a.mInflight.Set(float64(a.inflight))
	return Lease{id: id, weight: weight}, nil
}

// shedLocked records the rejection and builds the typed 429 detail.
// Callers hold mu.
func (r *Registry) shedLocked(a *account, reason Reason, now time.Time) *LimitError {
	a.shed[reason]++
	a.mShed[reason].Inc()
	e := &LimitError{
		Tenant:     a.t.ID,
		Reason:     reason,
		Inflight:   a.inflight,
		QuotaSlots: a.t.QuotaSlots,
	}
	switch reason {
	case BudgetExhausted:
		e.BalanceUSD = a.budget.Balance(now)
		e.RetryAfter = r.clamp(refillTime(e.BalanceUSD, a.t.BudgetPerHour))
	default:
		// A slot frees when some in-flight burst finishes; without a
		// service-time model at this layer, hint proportionally to how
		// oversubscribed the tenant is.
		over := float64(a.inflight-a.t.QuotaSlots) + 1
		frac := over / float64(a.t.QuotaSlots)
		if frac < 0.25 {
			frac = 0.25
		}
		e.RetryAfter = r.clamp(time.Duration(frac * float64(time.Second)))
	}
	return e
}

// refillTime is how long a drained bucket needs to climb back above zero.
func refillTime(balance, ratePerHour float64) time.Duration {
	if ratePerHour <= 0 {
		return time.Duration(1<<62 - 1) // clamped to maxRetryAfter
	}
	hours := -balance / ratePerHour
	return time.Duration(hours * float64(time.Hour))
}

func (r *Registry) clamp(d time.Duration) time.Duration {
	if d < minRetryAfter {
		return minRetryAfter
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// Release returns a lease's slots and debits the billed cost against the
// tenant's budget. A zero lease, or one whose tenant has since been
// deleted, is a no-op.
func (r *Registry) Release(l Lease, now time.Time, costUSD float64) {
	if l.id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.accounts[l.id]
	if !ok {
		return
	}
	a.inflight -= l.weight
	if a.inflight < 0 {
		a.inflight = 0
	}
	if costUSD > 0 {
		a.spent += costUSD
		if a.budget != nil {
			a.budget.Debit(now, costUSD)
		}
	}
	a.mInflight.Set(float64(a.inflight))
	a.mSpent.Set(a.spent)
}

// Usage is one tenant's billing/load rollup, served by
// GET /v1/tenants/{id}/usage.
type Usage struct {
	Tenant           string  `json:"tenant"`
	Name             string  `json:"name"`
	Admin            bool    `json:"admin"`
	QuotaSlots       int     `json:"quotaSlots"`
	Inflight         int     `json:"inflight"`
	Admitted         uint64  `json:"admitted"`
	ShedQuota        uint64  `json:"shedQuota"`
	ShedBudget       uint64  `json:"shedBudget"`
	SpentUSD         float64 `json:"spentUSD"`
	Metered          bool    `json:"metered"`
	BudgetPerHourUSD float64 `json:"budgetPerHourUSD,omitempty"`
	BudgetCapUSD     float64 `json:"budgetCapUSD,omitempty"`
	BudgetBalanceUSD float64 `json:"budgetBalanceUSD,omitempty"`
	// WarmPoolUSD is the platform's warm-pool provisioning spend —
	// pre-warming is a platform service billed to the operator account, so
	// the figure is the same on every tenant's rollup. The registry never
	// fills it; skyd stamps it from the cloud meter when a warm pool runs.
	WarmPoolUSD float64 `json:"warmPoolUSD,omitempty"`
}

func (r *Registry) usageLocked(a *account, now time.Time) Usage {
	u := Usage{
		Tenant:     a.t.ID,
		Name:       a.t.Name,
		Admin:      a.t.Admin,
		QuotaSlots: a.t.QuotaSlots,
		Inflight:   a.inflight,
		Admitted:   a.admitted,
		ShedQuota:  a.shed[OverQuota],
		ShedBudget: a.shed[BudgetExhausted],
		SpentUSD:   a.spent,
	}
	if a.budget != nil {
		u.Metered = true
		u.BudgetPerHourUSD = a.t.BudgetPerHour
		u.BudgetCapUSD = a.t.BudgetCap
		u.BudgetBalanceUSD = a.budget.Balance(now)
	}
	return u
}

// Usage snapshots one tenant's rollup at now.
func (r *Registry) Usage(id string, now time.Time) (Usage, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.accounts[id]
	if !ok {
		return Usage{}, false
	}
	return r.usageLocked(a, now), true
}

// Usages snapshots every tenant's rollup at now, sorted by ID. Only tests
// read it, among them internal/skyd's and internal/experiments' ledger
// tests, which is why it is exported.
func (r *Registry) Usages(now time.Time) []Usage {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Usage, 0, len(r.accounts))
	for _, a := range r.accounts {
		out = append(out, r.usageLocked(a, now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Fixture returns the deterministic development registry: an operator
// account plus two workload tenants with contrasting governors. Tests, the
// EX-10 experiment harness, and `skyd -tenants fixture` all load exactly
// this set, so keys and limits are stable across runs and documentation.
func Fixture() []Tenant {
	return []Tenant{
		{ID: "ops", Name: "Cluster operator", Keys: []string{"sk-ops-0001"}, Admin: true},
		{ID: "acme", Name: "Acme Pipelines", Keys: []string{"sk-acme-7f3a"},
			QuotaSlots: 32, BudgetPerHour: 60, BudgetCap: 10},
		{ID: "burst-lab", Name: "Burst Lab", Keys: []string{"sk-lab-21c9"},
			QuotaSlots: 8},
	}
}

// Load decodes a tenant list from JSON (one array of Tenant records, with
// only whitespace after it) and validates each entry; it is the file-based
// counterpart of Fixture for `skyd -tenants <path>`.
func Load(src io.Reader) ([]Tenant, error) {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	var ts []Tenant
	if err := dec.Decode(&ts); err != nil {
		return nil, fmt.Errorf("tenant: bad tenants file: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("tenant: bad tenants file: data after the JSON array")
	}
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	return ts, nil
}
