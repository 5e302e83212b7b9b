package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skyfaas/internal/lint"
)

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		file, pat string
		want      bool
	}{
		{"internal/sim/sim.go", "./...", true},
		{"internal/sim/sim.go", "./internal/...", true},
		{"internal/sim/sim.go", "./internal/sim", true},
		{"internal/sim/sim.go", "internal/sim", true},
		{"internal/sim/sim.go", "./internal/router", false},
		{"internal/router/metrics.go", "./internal/router/...", true},
		{"internal/router/metrics.go", "./internal/rou/...", false},
		{"sky.go", "./...", true},
		{"sky.go", ".", true},
		{"sky.go", "./internal/...", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.file, c.pat); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.file, c.pat, got, c.want)
		}
	}
}

func TestFindModuleRoot(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	nested := filepath.Join(root, "a", "b")
	if err := os.MkdirAll(nested, 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := findModuleRoot(nested)
	if err != nil {
		t.Fatal(err)
	}
	if got != root {
		t.Errorf("findModuleRoot = %q, want %q", got, root)
	}
}

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errOut.String())
	}
	for _, rule := range []string{"ctxgo", "floatdet", "mutexheld", "nilmetrics", "nodeterm"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing rule %s:\n%s", rule, out.String())
		}
	}
}

func TestRunUnknownRule(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-rules", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("run(-rules nope) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown rule") {
		t.Errorf("stderr missing diagnosis: %s", errOut.String())
	}
}

func TestGithubAnnotation(t *testing.T) {
	f := lint.Finding{File: "internal/metrics/metrics.go", Line: 42, Rule: "lockorder", Msg: "lock-order cycle"}
	want := "::error file=internal/metrics/metrics.go,line=42,title=skylint lockorder::lock-order cycle"
	if got := githubAnnotation(f); got != want {
		t.Errorf("githubAnnotation = %q, want %q", got, want)
	}
}

func TestWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	if err := writeJSON(path, []lint.Finding{
		{File: "a.go", Line: 1, Rule: "nodeterm", Msg: "m"},
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, raw)
	}
	if len(got) != 1 || got[0]["file"] != "a.go" || got[0]["rule"] != "nodeterm" {
		t.Errorf("round trip = %v", got)
	}

	// No findings must still produce a parseable empty array, not "null".
	if err := writeJSON(path, nil); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(raw)) != "[]" {
		t.Errorf("empty findings wrote %q, want []", raw)
	}
}

// TestRunCleanRepo runs the real binary path over the enclosing module —
// the exact invocation `make lint` performs — and expects a clean exit.
func TestRunCleanRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is slow; run without -short")
	}
	var out, errOut strings.Builder
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Errorf("run(./...) = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
}
