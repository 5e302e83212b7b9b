package skyd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"skyfaas/internal/admission"
	"skyfaas/internal/refresh"
	"skyfaas/internal/warmpool"
)

// newControlServer serves the two-zone world with every control-plane
// object on: both loops over both zones in their off mode (refresh each
// zone at most once in 1,000 hours unless forced, the warm pool ticking
// hourly), and a 50-slot admission gate. The long cooldown and the slow
// warm-pool tick keep a loop that a test switches on from flooding the
// simulation at 5e6 pacing.
func newControlServer(t testing.TB) *Server {
	t.Helper()
	zones := []string{"t1-slow", "t1-fast"}
	return newServer(t, 9, slowFast, nil, Config{
		Refresh:   &refresh.Config{Zones: zones, Mode: refresh.ModeOff, Cooldown: 1000 * time.Hour},
		WarmPool:  &warmpool.Config{Zones: zones, Mode: warmpool.ModeOff, TickEvery: time.Hour},
		Admission: &admission.Config{Slots: 50, TargetUtil: 1},
	})
}

// controlSurface is one control-plane admin pair: GET /v1/<name> answers
// the object's status, POST /v1/<name> steers it. status holds fields of
// the first status, control is a valid POST body (it switches a loop on),
// and after holds fields of the status it answers; bad pairs invalid
// bodies with the error code each must answer.
type controlSurface struct {
	name                   string
	status, control, after map[string]any
	bad                    []badBody
}

type badBody struct {
	body map[string]any
	code string
}

var controlSurfaces = []controlSurface{
	{
		name:    "refresh",
		status:  map[string]any{"mode": "off", "running": true, "refreshes": 0.0},
		control: map[string]any{"mode": "age", "budget": map[string]any{"ratePerHour": 2.5, "capUSD": 0.75}, "az": "t1-fast", "polls": 2},
		after:   map[string]any{"mode": "age", "budgetRatePerHour": 2.5, "budgetCapUSD": 0.75, "forced": 1.0},
		bad: []badBody{
			{map[string]any{}, "bad_request"},
			{map[string]any{"mode": "sometimes"}, "unknown_mode"},
			{map[string]any{"budget": map[string]any{"ratePerHour": 1.0}}, "bad_budget"},
		},
	},
	{
		name:    "warmpool",
		status:  map[string]any{"mode": "off", "running": true},
		control: map[string]any{"mode": "pinned", "budget": map[string]any{"ratePerHour": 2.5, "capUSD": 0.75}},
		after:   map[string]any{"mode": "pinned", "budgetRatePerHour": 2.5, "budgetCapUSD": 0.75},
		bad: []badBody{
			{map[string]any{}, "bad_request"},
			{map[string]any{"mode": "clairvoyant"}, "unknown_mode"},
			{map[string]any{"budget": map[string]any{"ratePerHour": 1.0}}, "bad_budget"},
		},
	},
	{
		name:    "admission",
		status:  map[string]any{"enabled": true, "slots": 50.0, "targetUtil": 1.0},
		control: map[string]any{"targetUtil": 0.5},
		after:   map[string]any{"targetUtil": 0.5, "limit": 25.0},
		bad: []badBody{
			{map[string]any{}, "bad_request"},
			{map[string]any{"targetUtil": 3.0}, "bad_retune"},
		},
	},
}

// TestControlWireGolden pins the wire shape of the three control surfaces:
// for GET and POST, on an enabled and a disabled server, and for each
// invalid body, the status, the error code, and every JSON key path with
// its value type, sorted. Values are not pinned, so the golden moves only
// when a field, a type or a code does. Refresh deliberately with:
//
//	go test ./internal/skyd/ -run ControlWireGolden -update
func TestControlWireGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Control-surface wire shapes: METHOD PATH (server) -> STATUS [CODE],\n")
	b.WriteString("# then each JSON key path and its value type; arrays merge their elements.\n")
	record := func(s *Server, label, method, path string, body any) {
		res, raw := do(t, s, method, path, body)
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s %s: %v: %s", method, path, err, raw)
		}
		code := ""
		if env, ok := v.(map[string]any)["error"].(map[string]any); ok {
			code = " " + fmt.Sprint(env["code"])
		}
		fmt.Fprintf(&b, "\n%s %s (%s) -> %d%s\n", method, path, label, res.StatusCode, code)
		types := map[string]string{}
		jsonShape("$", v, types)
		paths := make([]string, 0, len(types))
		for p := range types {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			fmt.Fprintf(&b, "  %s %s\n", p, types[p])
		}
	}
	on, plain := newControlServer(t), newTestServer(t)
	for _, c := range controlSurfaces {
		path := "/v1/" + c.name
		record(on, "enabled", "GET", path, nil)
		record(on, "enabled", "POST", path, c.control)
		for _, bad := range c.bad {
			raw, _ := json.Marshal(bad.body)
			record(on, "enabled, "+string(raw), "POST", path, bad.body)
		}
		record(plain, "disabled", "GET", path, nil)
		record(plain, "disabled", "POST", path, c.control)
	}
	got := b.String()

	golden := filepath.Join("testdata", "control_wire.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("control wire shapes drifted from %s (run with -update after reviewing the change):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// jsonShape records the type of every key path under v into types: object
// keys extend the path with .key, array elements share path[], and a path
// seen with several types records them all, joined by | in the order seen.
func jsonShape(path string, v any, types map[string]string) {
	add := func(typ string) {
		if have := types[path]; have == "" {
			types[path] = typ
		} else if !strings.Contains("|"+have+"|", "|"+typ+"|") {
			types[path] = have + "|" + typ
		}
	}
	switch x := v.(type) {
	case map[string]any:
		add("object")
		for k, e := range x {
			jsonShape(path+"."+k, e, types)
		}
	case []any:
		add("array")
		for _, e := range x {
			jsonShape(path+"[]", e, types)
		}
	case string:
		add("string")
	case float64:
		add("number")
	case bool:
		add("bool")
	case nil:
		add("null")
	}
}

// surfaceNamed returns the controlSurfaces row of the named surface.
func surfaceNamed(t *testing.T, name string) controlSurface {
	t.Helper()
	for _, c := range controlSurfaces {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no control surface %q", name)
	return controlSurface{}
}

// wantDisabled: both endpoints of the surface answer 409 <name>_disabled on
// a server without its object.
func wantDisabled(t *testing.T, name string) {
	t.Helper()
	c, s := surfaceNamed(t, name), newTestServer(t)
	res, body := do(t, s, "GET", "/v1/"+name, nil)
	wantErr(t, res, body, http.StatusConflict, name+"_disabled")
	res, body = do(t, s, "POST", "/v1/"+name, c.control)
	wantErr(t, res, body, http.StatusConflict, name+"_disabled")
}

// wantStatusAndControl: the surface answers its status, then applies its
// control body and answers the changed status.
func wantStatusAndControl(t *testing.T, name string) {
	t.Helper()
	c, s := surfaceNamed(t, name), newControlServer(t)
	wantFields(t, s, "GET", "/v1/"+name, nil, c.status)
	wantFields(t, s, "POST", "/v1/"+name, c.control, c.after)
}

// wantValidation: the surface answers every invalid body with its code.
func wantValidation(t *testing.T, name string) {
	t.Helper()
	c, s := surfaceNamed(t, name), newControlServer(t)
	for _, bad := range c.bad {
		res, body := do(t, s, "POST", "/v1/"+name, bad.body)
		wantErr(t, res, body, http.StatusBadRequest, bad.code)
	}
}

// wantCloseStops switches the named surfaces on and closes the server at
// once: Close must stop every tick and return (run with -race; this is the
// cross-thread Stop path).
func wantCloseStops(t *testing.T, names ...string) {
	t.Helper()
	s := newControlServer(t)
	for _, name := range names {
		res, body := do(t, s, "POST", "/v1/"+name, surfaceNamed(t, name).control)
		wantOK(t, res, body, nil)
	}
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("Close hung: a tick of %v kept the event queue alive", names)
	}
}

func TestRefreshDisabledAnswers409(t *testing.T)  { wantDisabled(t, "refresh") }
func TestWarmPoolDisabledAnswers409(t *testing.T) { wantDisabled(t, "warmpool") }
func TestAdmissionDisabled409(t *testing.T)       { wantDisabled(t, "admission") }

func TestRefreshControlValidation(t *testing.T)  { wantValidation(t, "refresh") }
func TestWarmPoolControlValidation(t *testing.T) { wantValidation(t, "warmpool") }

func TestWarmPoolStatusAndControl(t *testing.T) { wantStatusAndControl(t, "warmpool") }

func TestAdmissionStatusAndRetune(t *testing.T) {
	wantStatusAndControl(t, "admission")
	wantValidation(t, "admission")
}

func TestRefreshLoopCloseRaces(t *testing.T)  { wantCloseStops(t, "refresh") }
func TestWarmPoolLoopCloseRaces(t *testing.T) { wantCloseStops(t, "warmpool") }

// TestControlLoopsCloseRaces: Close stops both loops when both tick.
func TestControlLoopsCloseRaces(t *testing.T) { wantCloseStops(t, "refresh", "warmpool") }

// doOK is do for a request that must answer 200, its body decoded into v.
func doOK(t *testing.T, s *Server, method, path string, body, v any) {
	t.Helper()
	res, raw := do(t, s, method, path, body)
	wantOK(t, res, raw, v)
}

// wantFields is doOK for a JSON object that must hold every field of want.
func wantFields(t *testing.T, s *Server, method, path string, body any, want map[string]any) {
	t.Helper()
	var got map[string]any
	doOK(t, s, method, path, body, &got)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s %s: %s = %v, want %v", method, path, k, got[k], v)
		}
	}
}

// TestRefreshStatusAndControl: the shared status and control checks, then
// what only /v1/refresh does. A forced refresh makes its zone known and
// registers its spend, polls need a zone to force, and a half-bad retune
// changes nothing.
func TestRefreshStatusAndControl(t *testing.T) {
	wantStatusAndControl(t, "refresh")
	s := newControlServer(t)
	var st refresh.Status
	doOK(t, s, "POST", "/v1/refresh", map[string]any{"az": "t1-fast", "polls": 2}, &st)
	known := map[string]bool{}
	for _, z := range st.Zones {
		known[z.AZ] = z.Known
	}
	if st.SpentUSD <= 0 || !known["t1-fast"] || known["t1-slow"] {
		t.Fatalf("after force: %+v, want spend > 0 and only t1-fast known", st)
	}
	res, body := do(t, s, "POST", "/v1/refresh", map[string]any{
		"mode": "age", "budget": map[string]any{"ratePerHour": -1, "capUSD": 1},
	})
	wantErr(t, res, body, http.StatusBadRequest, "bad_budget")
	res, body = do(t, s, "POST", "/v1/refresh", map[string]any{"polls": 2})
	wantErr(t, res, body, http.StatusBadRequest, "bad_request")
	doOK(t, s, "GET", "/v1/refresh", nil, &st)
	if st.Mode != refresh.ModeOff {
		t.Fatalf("mode = %s after a rejected retune, want off kept", st.Mode)
	}
}
