package ciparity

import (
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	fuzzLine = regexp.MustCompile(`-fuzz=(\S+).*\s\./(\S+?)/?$`)
	fuzzDecl = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
)

// moduleTestFiles returns the root module's test files, relative to the
// repo root: not the nested bench/ module's, nor the analyzer fixtures
// under internal/lint/testdata, which are not packages of the module.
func moduleTestFiles(t *testing.T) []string {
	t.Helper()
	return testFilesExcept(t, "bench", filepath.Join("internal", "lint", "testdata"))
}

// testFilesExcept returns the repo's test files, relative to the repo
// root, outside the directories skip names (relative to the root too).
func testFilesExcept(t *testing.T, skip ...string) []string {
	t.Helper()
	root := filepath.Join("..", "..")
	skipped := map[string]bool{}
	for _, dir := range skip {
		skipped[filepath.Join(root, dir)] = true
	}
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (skipped[path] || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		out = append(out, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fuzzTargets maps each package directory, relative to the repo root, to
// the Fuzz* functions its test files declare.
func fuzzTargets(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, rel := range moduleTestFiles(t) {
		for _, m := range fuzzDecl.FindAllStringSubmatch(repoFile(t, rel), -1) {
			dir := filepath.ToSlash(filepath.Dir(rel))
			out[dir] = append(out[dir], m[1])
		}
	}
	return out
}

// TestMakeFuzzMatchesTargets: `go test -fuzz` with a pattern that matches
// no target prints "no fuzz tests to fuzz" and exits 0, so a `make fuzz`
// line that outlives its target passes silently, and a target with no line
// is never fuzzed. Each line's pattern must match exactly one Fuzz*
// function in its package, and the lines must cover every such function.
func TestMakeFuzzMatchesTargets(t *testing.T) {
	declared := fuzzTargets(t)
	fuzzed := map[string]bool{}
	for _, line := range strings.Split(makeRecipe(t, "fuzz"), "\n") {
		m := fuzzLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			t.Errorf("make fuzz line %q names no -fuzz pattern and package", line)
			continue
		}
		pattern, err := regexp.Compile(m[1])
		if err != nil {
			t.Errorf("make fuzz pattern %q: %v", m[1], err)
			continue
		}
		var hits []string
		for _, name := range declared[m[2]] {
			if pattern.MatchString(name) {
				hits = append(hits, m[2]+"."+name)
			}
		}
		if len(hits) != 1 {
			t.Errorf("make fuzz -fuzz=%s ./%s/ matches %d targets %v, want exactly one", m[1], m[2], len(hits), hits)
			continue
		}
		fuzzed[hits[0]] = true
	}
	var missing []string
	total := 0
	for dir, names := range declared {
		for _, name := range names {
			total++
			if !fuzzed[dir+"."+name] {
				missing = append(missing, dir+"."+name)
			}
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("fuzz targets make fuzz never runs: %v", missing)
	}
	if total == 0 {
		t.Error("found no Fuzz* targets in the repo")
	}
}
