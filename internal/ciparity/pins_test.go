package ciparity

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

// pinTableHeader opens DESIGN.md's table of allocation pins, the one list
// of them: README points there.
const pinTableHeader = "| layer | test | pin |"

var pinTest = regexp.MustCompile("`(Test\\w+)`")

// pinTableTests returns the tests DESIGN.md's pin table names.
func pinTableTests(t *testing.T) map[string]bool {
	t.Helper()
	lines := strings.Split(repoFile(t, "DESIGN.md"), "\n")
	out := map[string]bool{}
	for i, line := range lines {
		if strings.TrimSpace(line) != pinTableHeader {
			continue
		}
		for _, row := range lines[i+2:] {
			if !strings.HasPrefix(row, "|") {
				break
			}
			cells := strings.Split(row, "|")
			if len(cells) < 4 {
				t.Fatalf("DESIGN.md pin table row has too few cells: %s", row)
			}
			for _, m := range pinTest.FindAllStringSubmatch(cells[2], -1) {
				out[m[1]] = true
			}
		}
		return out
	}
	t.Fatalf("DESIGN.md has no pin table (a line %q)", pinTableHeader)
	return nil
}

// moduleTests returns every Test function of the root module's test files,
// each mapped to whether it measures allocations: it calls AllocsPerRun or
// reads a MemStats' TotalAlloc or Mallocs.
func moduleTests(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	out := map[string]bool{}
	for _, rel := range moduleTestFiles(t) {
		f, err := parser.ParseFile(fset, rel, repoFile(t, rel), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Test") || fn.Body == nil {
				continue
			}
			measures := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "AllocsPerRun", "TotalAlloc", "Mallocs":
						measures = true
					}
				}
				return !measures
			})
			out[fn.Name.Name] = out[fn.Name.Name] || measures
		}
	}
	return out
}

// TestPinTableMatchesTests: DESIGN.md's pin table names only tests that
// exist, and every test that measures allocations has a row, so a pin is
// never documented after its test is gone nor added without its figure.
func TestPinTableMatchesTests(t *testing.T) {
	tests := moduleTests(t)
	listed := pinTableTests(t)
	for name := range listed {
		if _, ok := tests[name]; !ok {
			t.Errorf("DESIGN.md's pin table names %s, which no test file declares", name)
		}
	}
	for name, measures := range tests {
		if measures && !listed[name] {
			t.Errorf("%s measures allocations but has no row in DESIGN.md's pin table", name)
		}
	}
}
