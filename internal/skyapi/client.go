// Package skyapi is the Go client for the skyd /v1 HTTP API. It owns the
// two halves of the wire contract the CLIs would otherwise each reimplement:
// attaching the tenant API key (Authorization: Bearer) and decoding the
// documented JSON error envelope {"error":{"code","message","retryAfterMS"}}
// into a typed *Error callers can errors.As on.
//
// A zero key runs unauthenticated, matching a skyd with no tenant registry
// (auth-off mode); against an auth-enabled skyd the server answers 401
// missing_key, which surfaces here as *Error{Code: "missing_key"}.
package skyapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// EnvKey is the environment variable the CLIs read a default API key from.
const EnvKey = "SKY_API_KEY"

// KeyFromEnv returns the ambient API key ("" when unset) — the default for
// every CLI -key flag, so `export SKY_API_KEY=...` authenticates a whole
// shell session.
func KeyFromEnv() string {
	return os.Getenv(EnvKey)
}

// Error is a non-200 /v1 answer, decoded from the documented envelope. It
// is returned as an error value; match with errors.As and branch on Code
// (the stable machine-readable half of the contract) rather than Message.
type Error struct {
	Status       int             // HTTP status code
	Code         string          // stable error code, e.g. "unknown_az", "tenant_over_quota"
	Message      string          // human-readable detail
	RetryAfterMS float64         // shed hint on 429s (0 when absent)
	Detail       json.RawMessage // optional structured context
}

func (e *Error) Error() string {
	return fmt.Sprintf("skyd: %s (%d %s)", e.Message, e.Status, e.Code)
}

// RetryAfter returns the shed hint as a duration, 0 when the server sent
// none.
func (e *Error) RetryAfter() time.Duration {
	return time.Duration(e.RetryAfterMS * float64(time.Millisecond))
}

// Client talks to one skyd instance.
type Client struct {
	base string
	key  string
	hc   *http.Client
}

// New builds a client for the skyd at base (e.g. "http://127.0.0.1:8080"),
// authenticating every request with key; an empty key sends no credentials.
func New(base, key string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		key:  key,
		// Control-plane calls round-trip through the simulation, so a slow
		// pacing factor legitimately takes a while; be generous by default.
		hc: &http.Client{Timeout: 120 * time.Second},
	}
}

// Post marshals in (nil for an empty body), issues a POST, and decodes the
// 200 body into out (nil to discard).
func (c *Client) Post(path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	return c.roundTrip(http.MethodPost, path, body, out)
}

func (c *Client) roundTrip(method, path string, body io.Reader, out any) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, 1<<20))
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return decodeError(res.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// decodeError turns a non-200 body into *Error: the documented envelope
// when the server sent one, a best-effort wrapper (Code "http_error") when
// something in between — a proxy, a panic page — answered instead.
func decodeError(status int, data []byte) error {
	var env struct {
		Error struct {
			Code         string          `json:"code"`
			Message      string          `json:"message"`
			RetryAfterMS float64         `json:"retryAfterMS"`
			Detail       json.RawMessage `json:"detail"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err == nil && env.Error.Code != "" {
		return &Error{
			Status:       status,
			Code:         env.Error.Code,
			Message:      env.Error.Message,
			RetryAfterMS: env.Error.RetryAfterMS,
			Detail:       env.Error.Detail,
		}
	}
	msg := strings.TrimSpace(string(data))
	if len(msg) > 200 {
		msg = msg[:200] + "..."
	}
	if msg == "" {
		msg = http.StatusText(status)
	}
	return &Error{Status: status, Code: "http_error", Message: msg}
}
