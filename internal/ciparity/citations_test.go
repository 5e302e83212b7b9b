package ciparity

import (
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

var (
	// codeSpan is a Markdown code span; only names cited inside one count.
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// citedTest is a test, fuzz target or benchmark named in a code span,
	// such as `TestBurstAllocs` or `lint.TestRepoClean`. The wildcard
	// `Fuzz*` names no target and does not match.
	citedTest = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)`)
	testDecl  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// citingDocs are the documents whose test citations must resolve.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// declaredTests returns every Test, Fuzz and Benchmark function declared
// in the repo's test files: the root module's and the nested bench/
// module's, not the analyzer fixtures under internal/lint/testdata.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, rel := range testFilesExcept(t, filepath.Join("internal", "lint", "testdata")) {
		for _, m := range testDecl.FindAllStringSubmatch(repoFile(t, rel), -1) {
			out[m[1]] = true
		}
	}
	return out
}

// citedTests returns the test names doc cites in code spans.
func citedTests(doc string) []string {
	seen := map[string]bool{}
	for _, span := range codeSpan.FindAllString(doc, -1) {
		for _, m := range citedTest.FindAllStringSubmatch(span, -1) {
			seen[m[1]] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestDocsCiteOnlyTestsThatExist: every test, fuzz target and benchmark
// that DESIGN.md, README.md or EXPERIMENTS.md names in a code span is
// declared in a test file, so a document cannot point a reader at a check
// that was deleted or renamed.
func TestDocsCiteOnlyTestsThatExist(t *testing.T) {
	declared := declaredTests(t)
	total := 0
	for _, doc := range citingDocs {
		cited := citedTests(repoFile(t, doc))
		total += len(cited)
		for _, name := range cited {
			if !declared[name] {
				t.Errorf("%s cites %s, which no test file declares", doc, name)
			}
		}
	}
	t.Logf("%d citations across %v", total, citingDocs)
}
