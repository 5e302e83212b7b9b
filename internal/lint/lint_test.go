package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"skyfaas/internal/lint"
)

const fixtureDir = "testdata/mod"

func loadFixture(t *testing.T) *lint.Module {
	t.Helper()
	mod, err := lint.Load(fixtureDir)
	if err != nil {
		t.Fatalf("Load(%s): %v", fixtureDir, err)
	}
	return mod
}

// TestFixtureGolden runs every analyzer over the fixture module and checks
// the exact "file:line: [rule]" findings against the //want markers seeded
// in the fixture sources. Fixture lines without a marker — including the
// whole clean package and every //lint:allow site — must produce nothing.
func TestFixtureGolden(t *testing.T) {
	findings := lint.Run(loadFixture(t), lint.Analyzers())
	got := make(map[string]bool)
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d: [%s]", f.File, f.Line, f.Rule)
		if got[key] {
			t.Errorf("duplicate finding %s", key)
		}
		got[key] = true
	}
	want := wantMarkers(t)

	for key := range want {
		if !got[key] {
			t.Errorf("missing expected finding %s", key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("unexpected finding %s", key)
		}
	}
}

// TestEveryRuleFires asserts each registered analyzer has fixture coverage:
// a lint rule nothing exercises is a lint rule nothing protects.
func TestEveryRuleFires(t *testing.T) {
	findings := lint.Run(loadFixture(t), lint.Analyzers())
	fired := make(map[string]bool)
	for _, f := range findings {
		fired[f.Rule] = true
	}
	for _, a := range lint.Analyzers() {
		if !fired[a.Name] {
			t.Errorf("rule %s produced no fixture findings", a.Name)
		}
	}
}

// TestRuleSubset checks that running a single analyzer reports only its own
// findings.
func TestRuleSubset(t *testing.T) {
	mod := loadFixture(t)
	var nodeterm *lint.Analyzer
	for _, a := range lint.Analyzers() {
		if a.Name == "nodeterm" {
			nodeterm = a
		}
	}
	if nodeterm == nil {
		t.Fatal("nodeterm analyzer not registered")
	}
	// Malformed //lint:allow comments are a framework check, not an
	// analyzer: badallow findings surface regardless of rule selection.
	for _, f := range lint.Run(mod, []*lint.Analyzer{nodeterm}) {
		if f.Rule != "nodeterm" && f.Rule != lint.BadAllowRule {
			t.Errorf("unexpected rule %s in nodeterm-only run", f.Rule)
		}
	}
}

// TestFindingString pins the canonical output format CI greps for.
func TestFindingString(t *testing.T) {
	f := lint.Finding{File: "internal/sim/sim.go", Line: 42, Rule: "nodeterm", Msg: "boom"}
	want := "internal/sim/sim.go:42: [nodeterm] boom"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

var (
	repoOnce sync.Once
	repoMod  *lint.Module
	repoErr  error
)

// loadRepo type-checks the real repository once per test binary (the
// load is the expensive part; several tests below share it).
func loadRepo(t *testing.T) *lint.Module {
	t.Helper()
	if testing.Short() {
		t.Skip("repo-wide type-check is slow; run without -short")
	}
	repoOnce.Do(func() { repoMod, repoErr = lint.Load("../..") })
	if repoErr != nil {
		t.Fatalf("Load(../..): %v", repoErr)
	}
	return repoMod
}

// TestRepoClean asserts the shipped tree itself passes skylint — the same
// invariant `make ci` enforces.
func TestRepoClean(t *testing.T) {
	mod := loadRepo(t)
	for _, f := range lint.Run(mod, lint.Analyzers()) {
		t.Errorf("repo not lint-clean: %s", f)
	}
}

// wantMarkers scans the fixture tree for "//want rule[,rule]" trailing
// comments and returns the expected "file:line: [rule]" set.
func wantMarkers(t *testing.T) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	err := filepath.WalkDir(fixtureDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(fixtureDir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		scanner := bufio.NewScanner(f)
		for line := 1; scanner.Scan(); line++ {
			_, marker, ok := strings.Cut(scanner.Text(), "//want ")
			if !ok {
				continue
			}
			for _, rule := range strings.Split(strings.Fields(marker)[0], ",") {
				want[fmt.Sprintf("%s:%d: [%s]", rel, line, rule)] = true
			}
		}
		return scanner.Err()
	})
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("no //want markers found in fixtures")
	}
	return want
}

// TestRegistryNamesSorted keeps the registry tidy: every rule documented,
// runnable, and listed in name order (the order -list and README use).
func TestRegistryNamesSorted(t *testing.T) {
	var names []string
	for _, a := range lint.Analyzers() {
		names = append(names, a.Name)
		if a.Doc == "" {
			t.Errorf("rule %s has no Doc", a.Name)
		}
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("rule %s must set exactly one of Run or RunModule", a.Name)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Analyzers() not sorted by name: %v", names)
	}
}
