// Package ciparity pins the contract between `make ci` and the GitHub
// workflow: every target the ci meta-target runs must appear as a
// `run: make <target>` step in .github/workflows/ci.yml, and every make
// step in the workflow must be part of `make ci`. Before this test the
// contract was a pair of "keep in sync" comments; comments don't fail.
package ciparity

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func repoFile(t *testing.T, rel string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", rel))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// makeCITargets parses the Makefile's `ci:` rule into its target list.
func makeCITargets(t *testing.T) []string {
	t.Helper()
	for _, line := range strings.Split(repoFile(t, "Makefile"), "\n") {
		if rest, ok := strings.CutPrefix(line, "ci:"); ok {
			targets := strings.Fields(rest)
			if len(targets) == 0 {
				t.Fatal("Makefile ci target has no prerequisites")
			}
			return targets
		}
	}
	t.Fatal("no `ci:` rule in Makefile")
	return nil
}

var workflowMake = regexp.MustCompile(`run:\s*make\s+(\S+)`)

// workflowTargets parses every `run: make <target>` step across all jobs.
func workflowTargets(t *testing.T) []string {
	t.Helper()
	var targets []string
	for _, m := range workflowMake.FindAllStringSubmatch(repoFile(t, filepath.Join(".github", "workflows", "ci.yml")), -1) {
		targets = append(targets, m[1])
	}
	if len(targets) == 0 {
		t.Fatal("no `run: make ...` steps in ci.yml")
	}
	return targets
}

func TestMakeCIMatchesWorkflow(t *testing.T) {
	ci := makeCITargets(t)
	wf := workflowTargets(t)

	ciSet := map[string]bool{}
	for _, target := range ci {
		if ciSet[target] {
			t.Errorf("make ci runs %q twice", target)
		}
		ciSet[target] = true
	}
	wfSet := map[string]bool{}
	for _, target := range wf {
		if wfSet[target] {
			t.Errorf("ci.yml runs `make %s` twice", target)
		}
		wfSet[target] = true
	}

	for _, target := range ci {
		if !wfSet[target] {
			t.Errorf("make ci runs %q but no workflow step does", target)
		}
	}
	for _, target := range wf {
		if !ciSet[target] {
			t.Errorf("ci.yml runs `make %s` which is not part of `make ci`", target)
		}
	}
}

// TestWorkflowJobsGuarded: every job must carry a timeout-minutes guard so
// a hang — a wall-clock pacing test, a fuzz run, a stuck process handoff —
// fails fast instead of eating the 6-hour default.
func TestWorkflowJobsGuarded(t *testing.T) {
	wf := repoFile(t, filepath.Join(".github", "workflows", "ci.yml"))
	// Two-space-indented keys appear under `on:` too; only the ones after
	// the jobs: section are job names.
	_, wf, found := strings.Cut(wf, "\njobs:\n")
	if !found {
		t.Fatal("no jobs: section in ci.yml")
	}
	jobs := regexp.MustCompile(`(?m)^  ([a-z][a-z0-9-]*):$`).FindAllStringSubmatch(wf, -1)
	if len(jobs) < 2 {
		t.Fatalf("expected the split build-test/smoke-bench jobs, found %d", len(jobs))
	}
	var names []string
	for _, j := range jobs {
		names = append(names, j[1])
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != "build-test,smoke-bench" {
		t.Errorf("jobs = %s", got)
	}
	if got := strings.Count(wf, "timeout-minutes:"); got != len(jobs) {
		t.Errorf("%d jobs but %d timeout-minutes guards", len(jobs), got)
	}
}

// TestMakeCICoversTheGates: the meta-target must keep the load-bearing
// steps — dropping the race run or the benchmark's smoke test from `make ci`
// would silently drop them from CI too, since the workflow mirrors the
// Makefile.
func TestMakeCICoversTheGates(t *testing.T) {
	ciSet := map[string]bool{}
	for _, target := range makeCITargets(t) {
		ciSet[target] = true
	}
	for _, want := range []string{"build", "vet", "fmt-check", "lint", "test", "race", "bench-smoke"} {
		if !ciSet[want] {
			t.Errorf("make ci no longer runs %q", want)
		}
	}
}

// makeRecipe returns the recipe lines of the Makefile rule for target.
func makeRecipe(t *testing.T, target string) string {
	t.Helper()
	_, rest, found := strings.Cut(repoFile(t, "Makefile"), "\n"+target+":")
	if !found {
		t.Fatalf("no `%s:` rule in Makefile", target)
	}
	var recipe []string
	for _, line := range strings.Split(rest, "\n")[1:] {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		recipe = append(recipe, line)
	}
	return strings.Join(recipe, "\n")
}

var exFlag = regexp.MustCompile(`-ex\s+(\S+)`)

// TestReproduceMatchesDataCheck: `make reproduce` writes into data/
// exactly the experiments `make data-check` regenerates and compares, so
// the tree stays checkable right after a reproduction.
func TestReproduceMatchesDataCheck(t *testing.T) {
	var lists []string
	for _, target := range []string{"reproduce", "data-check"} {
		m := exFlag.FindStringSubmatch(makeRecipe(t, target))
		if m == nil {
			t.Fatalf("make %s passes skybench no -ex list", target)
		}
		lists = append(lists, m[1])
	}
	if lists[0] != lists[1] {
		t.Errorf("make reproduce runs -ex %s but make data-check checks -ex %s", lists[0], lists[1])
	}
}
