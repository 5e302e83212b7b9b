package skyapi

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestClientAuthAndDecode(t *testing.T) {
	var gotAuth string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotAuth = r.Header.Get("Authorization")
		switch r.URL.Path {
		case "/v1/ok":
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"answer": 42}`))
		case "/v1/shed":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":{"code":"overloaded","message":"shed","retryAfterMS":1500}}`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := New(srv.URL+"/", "sk-test") // trailing slash must not double up
	var out struct {
		Answer int `json:"answer"`
	}
	if err := c.roundTrip(http.MethodGet, "/v1/ok", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out.Answer != 42 {
		t.Fatalf("answer = %d, want 42", out.Answer)
	}
	if gotAuth != "Bearer sk-test" {
		t.Fatalf("Authorization = %q, want Bearer sk-test", gotAuth)
	}

	// The envelope decodes into a typed, matchable error.
	err := c.Post("/v1/shed", map[string]any{"n": 1}, nil)
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %T %v, want *Error", err, err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "overloaded" {
		t.Fatalf("decoded %+v, want 429 overloaded", apiErr)
	}
	if apiErr.RetryAfter() != 1500*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 1.5s", apiErr.RetryAfter())
	}

	// A non-envelope body (here net/http's 404 page) still comes back as a
	// usable *Error rather than a decode failure.
	err = c.roundTrip(http.MethodGet, "/v1/nope", nil, nil)
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %T %v, want *Error", err, err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Code != "http_error" || apiErr.Message == "" {
		t.Fatalf("decoded %+v, want 404 http_error with message", apiErr)
	}
}

func TestClientNoKeySendsNoCredentials(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Header["Authorization"]; ok {
			t.Error("Authorization header sent without a key")
		}
		_, _ = w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	if err := New(srv.URL, "").roundTrip(http.MethodGet, "/v1/zones", nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyFromEnv(t *testing.T) {
	t.Setenv(EnvKey, "sk-ambient")
	if got := KeyFromEnv(); got != "sk-ambient" {
		t.Fatalf("KeyFromEnv = %q", got)
	}
}
