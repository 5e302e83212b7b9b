package ciparity

import (
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"
)

// moduleMapHeader opens DESIGN.md §3, whose fenced tree gives every
// package under internal/ and every command under cmd/ a "├── name/" row.
const moduleMapHeader = "## 3. System inventory (module map)"

// treeRow matches a directory row of the tree; group 1 is the indent, one
// four-rune column per level.
var treeRow = regexp.MustCompile(`^((?:[│ ]   )*)[├└]── ([\w.-]+)/`)

// moduleMap returns the directories under internal/ and cmd/, relative to
// the repo root, that DESIGN.md §3's tree names.
func moduleMap(t *testing.T) map[string]bool {
	t.Helper()
	_, section, ok := strings.Cut(repoFile(t, "DESIGN.md"), moduleMapHeader)
	if !ok {
		t.Fatalf("DESIGN.md has no module map (a line %q)", moduleMapHeader)
	}
	_, tree, _ := strings.Cut(section, "```\n")
	tree, _, _ = strings.Cut(tree, "```")
	out := map[string]bool{}
	var path []string
	for _, line := range strings.Split(tree, "\n") {
		m := treeRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		depth := utf8.RuneCountInString(m[1]) / 4
		if depth > len(path) {
			t.Fatalf("DESIGN.md §3 row %q is nested under no directory", line)
		}
		path = append(path[:depth], m[2])
		if dir := strings.Join(path, "/"); strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
			out[dir] = true
		}
	}
	return out
}

// goDirs returns the directories under internal/ and cmd/, relative to the
// repo root, that hold a .go file (withGo), and those that hold a non-test
// one (pkgs). testdata directories are not packages and are skipped.
func goDirs(t *testing.T) (withGo, pkgs map[string]bool) {
	t.Helper()
	root := filepath.Join("..", "..")
	withGo, pkgs = map[string]bool{}, map[string]bool{}
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			rel = filepath.ToSlash(rel)
			withGo[rel] = true
			if !strings.HasSuffix(path, "_test.go") {
				pkgs[rel] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return withGo, pkgs
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestModuleMapMatchesTree: DESIGN.md §3 is the one module map (README
// links to it), so it names every package and command under internal/ and
// cmd/, and nothing that is gone.
func TestModuleMapMatchesTree(t *testing.T) {
	named := moduleMap(t)
	withGo, pkgs := goDirs(t)
	for _, dir := range sortedKeys(pkgs) {
		if !named[dir] {
			t.Errorf("%s holds a package that DESIGN.md §3's module map does not name", dir)
		}
	}
	for _, dir := range sortedKeys(named) {
		if !withGo[dir] {
			t.Errorf("DESIGN.md §3's module map names %s, which holds no Go file", dir)
		}
	}
}
