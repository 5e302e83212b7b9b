package skyd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"skyfaas/internal/cloudsim"
	"skyfaas/internal/control"
	"skyfaas/internal/metrics"
	"skyfaas/internal/router"
	"skyfaas/internal/tenant"
)

// The /v1 surface is a route table of typed handlers. Every handler has the
// shape func(ctx, req) (resp, *apiError): the mount loop owns decoding
// identity, encoding the response, emitting the documented error envelope,
// and instrumenting the endpoint, so handlers hold only their own logic.
// The table itself is data — the API-surface golden test diffs it against
// testdata/api_surface.golden, making any endpoint or auth change a visible
// review artifact.
//
// Error contract (documented in README "API reference"): every non-2xx
// response is
//
//	{"error": {"code": "...", "message": "...", "retryAfterMS": 1500, "detail": {...}}}
//
// where code is a stable machine-readable identifier, message is for
// humans, retryAfterMS appears on 429s (and agrees with the Retry-After
// header), and detail carries code-specific structure (shed telemetry,
// tenant budget state).

// apiFunc is the typed handler shape. A nil *apiError means success; the
// mount loop encodes resp as JSON with status 200.
type apiFunc func(ctx context.Context, r *apiReq) (any, *apiError)

// apiReq is what a handler sees of the HTTP request: the raw request for
// path/query access plus the authenticated account.
type apiReq struct {
	http *http.Request
	// acct is the tenant the API key resolved to; nil when the server runs
	// with no tenant registry (auth-off mode).
	acct *tenant.Tenant
}

// decode reads the JSON request body: one JSON value and only whitespace
// after it (1 MiB cap, unknown fields rejected).
func (r *apiReq) decode(v any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.http.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return apiErrf(http.StatusBadRequest, "bad_request", "bad request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return apiErrf(http.StatusBadRequest, "bad_request", "bad request body: data after the JSON value")
	}
	return nil
}

// apiError is a typed handler failure: the HTTP status, the stable error
// code, and optional retry/detail payload for the envelope.
type apiError struct {
	status     int
	code       string
	message    string
	retryAfter time.Duration
	detail     any
}

// apiErrf builds an apiError with a formatted message.
func apiErrf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, message: fmt.Sprintf(format, args...)}
}

// errFromExec classifies an error that surfaced from inside the simulation
// (or the command queue): addressing errors and a control loop's rejected
// mode or budget are the client's fault, a strategy with no zone to pick is
// the state's (characterize first or name candidates), a closed server or a
// stalled simulation loop is unavailability, anything else is an upstream
// failure of the simulated cloud.
func errFromExec(err error) *apiError {
	switch {
	case errors.Is(err, cloudsim.ErrNoSuchAZ):
		return apiErrf(http.StatusNotFound, "unknown_az", "%v", err)
	case errors.Is(err, router.ErrNoZone):
		return apiErrf(http.StatusConflict, "no_zone", "%v", err)
	case errors.Is(err, control.ErrUnknownMode):
		return apiErrf(http.StatusBadRequest, "unknown_mode", "%v", err)
	case errors.Is(err, control.ErrBadBudget):
		return apiErrf(http.StatusBadRequest, "bad_budget", "%v", err)
	case errors.Is(err, ErrClosed), errors.Is(err, errStalled):
		return apiErrf(http.StatusServiceUnavailable, "unavailable", "%v", err)
	default:
		return apiErrf(http.StatusBadGateway, "upstream_failure", "%v", err)
	}
}

// errEnvelope is the documented JSON error body.
type errEnvelope struct {
	Error errBody `json:"error"`
}

type errBody struct {
	Code         string  `json:"code"`
	Message      string  `json:"message"`
	RetryAfterMS float64 `json:"retryAfterMS,omitempty"`
	Detail       any     `json:"detail,omitempty"`
}

// writeAPIError emits the envelope; on sheds it also sets the Retry-After
// header (whole seconds, rounded up, per RFC 9110) so plain HTTP clients
// and envelope-aware ones read the same hint.
func writeAPIError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		secs := int(math.Ceil(e.retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, e.status, errEnvelope{Error: errBody{
		Code:         e.code,
		Message:      e.message,
		RetryAfterMS: float64(e.retryAfter.Milliseconds()),
		Detail:       e.detail,
	}})
}

// ---------------------------------------------------------------------------
// Route table

// routeDef declares one /v1 endpoint: its mux pattern, whether it requires
// an authenticated tenant (only enforced when a registry is configured),
// whether it is operator-only, and its handler.
type routeDef struct {
	method string
	path   string
	auth   bool
	admin  bool
	h      func(*Server) apiFunc
}

// apiRouteDefs is the complete /v1 surface. Order is the documentation
// order; the golden test snapshots {method, path, auth} from exactly this
// table.
func apiRouteDefs() []routeDef {
	return []routeDef{
		{method: "GET", path: "/v1/healthz", auth: false, h: func(s *Server) apiFunc { return s.handleHealthz }},
		{method: "GET", path: "/v1/zones", auth: true, h: func(s *Server) apiFunc { return s.handleZones }},
		{method: "GET", path: "/v1/characterizations", auth: true, h: func(s *Server) apiFunc { return s.handleCharacterizations }},
		{method: "POST", path: "/v1/characterize", auth: true, h: func(s *Server) apiFunc { return s.handleCharacterize }},
		{method: "POST", path: "/v1/profile", auth: true, h: func(s *Server) apiFunc { return s.handleProfile }},
		{method: "GET", path: "/v1/perf", auth: true, h: func(s *Server) apiFunc { return s.handlePerf }},
		{method: "POST", path: "/v1/burst", auth: true, h: func(s *Server) apiFunc { return s.handleBurst }},
		{method: "GET", path: "/v1/workloads", auth: true, h: func(s *Server) apiFunc { return s.handleWorkloads }},
		{method: "POST", path: "/v1/faults", auth: true, admin: true, h: func(s *Server) apiFunc { return s.handleInjectFaults }},
		{method: "GET", path: "/v1/faults", auth: true, h: func(s *Server) apiFunc { return s.handleListFaults }},
		{method: "GET", path: "/v1/refresh", auth: true, h: refreshSurface.get},
		{method: "POST", path: "/v1/refresh", auth: true, admin: true, h: refreshSurface.post},
		{method: "GET", path: "/v1/admission", auth: true, h: admissionSurface.get},
		{method: "POST", path: "/v1/admission", auth: true, admin: true, h: admissionSurface.post},
		{method: "GET", path: "/v1/warmpool", auth: true, h: warmPoolSurface.get},
		{method: "POST", path: "/v1/warmpool", auth: true, admin: true, h: warmPoolSurface.post},
		{method: "GET", path: "/v1/tenants", auth: true, admin: true, h: func(s *Server) apiFunc { return s.handleListTenants }},
		{method: "POST", path: "/v1/tenants", auth: true, admin: true, h: func(s *Server) apiFunc { return s.handleCreateTenant }},
		{method: "DELETE", path: "/v1/tenants/{id}", auth: true, admin: true, h: func(s *Server) apiFunc { return s.handleDeleteTenant }},
		{method: "GET", path: "/v1/tenants/{id}/usage", auth: true, h: func(s *Server) apiFunc { return s.handleTenantUsage }},
	}
}

// ---------------------------------------------------------------------------
// Auth middleware

// apiKey extracts the credential: Authorization: Bearer <key> wins, the
// X-Sky-Key header is the fallback for clients that cannot set
// Authorization.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if k, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(k)
		}
		return ""
	}
	return r.Header.Get("X-Sky-Key")
}

// authorize resolves the request's API key to a tenant before the handler
// runs. With no registry configured the whole surface is open (auth-off
// mode — zero-config dev servers and most tests); with one, every auth
// route needs a known key and admin routes an operator account.
func (s *Server) authorize(def routeDef, req *apiReq) *apiError {
	if s.tenants == nil || !def.auth {
		return nil
	}
	key := apiKey(req.http)
	if key == "" {
		return apiErrf(http.StatusUnauthorized, "missing_key",
			"an API key is required: send Authorization: Bearer <key> or X-Sky-Key")
	}
	t, ok := s.tenants.Resolve(key)
	if !ok {
		return apiErrf(http.StatusForbidden, "bad_key", "unrecognized API key")
	}
	req.acct = &t
	if def.admin && !t.Admin {
		return apiErrf(http.StatusForbidden, "not_admin",
			"tenant %q is not an operator account", t.ID)
	}
	return nil
}

// mount registers one route with the shared middleware stack:
// authentication, the central encoder, and per-endpoint (plus per-tenant)
// instrumentation. The metric path label is the route pattern, not the
// concrete URL, so {id} routes stay one series.
func (s *Server) mount(def routeDef) {
	reg := s.rt.Metrics()
	hist := reg.Histogram("sky_skyd_http_request_ms",
		"wall-time handler latency (milliseconds)", httpBuckets, metrics.L("path", def.path))
	h := def.h(s)
	s.mux.HandleFunc(def.method+" "+def.path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := http.StatusOK
		req := &apiReq{http: r}
		if e := s.authorize(def, req); e != nil {
			code = e.status
			writeAPIError(w, e)
		} else if resp, e := h(r.Context(), req); e != nil {
			code = e.status
			writeAPIError(w, e)
		} else {
			writeJSON(w, http.StatusOK, resp)
		}
		hist.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		reg.Counter("sky_skyd_http_requests_total",
			"requests served, by endpoint and status code",
			metrics.L("path", def.path), metrics.L("code", strconv.Itoa(code))).Inc()
		if s.tenants != nil {
			id := "-" // unauthenticated or auth-off route
			if req.acct != nil {
				id = req.acct.ID
			}
			reg.Counter("sky_tenant_http_requests_total",
				"requests served, by tenant and status code",
				metrics.L("tenant", id), metrics.L("code", strconv.Itoa(code))).Inc()
		}
	})
}
