package ciparity

import (
	"regexp"
	"sort"
	"strings"
	"testing"

	"skyfaas/internal/lint"
)

// designRulesLine opens DESIGN.md's list of skylint rules: "<N> rules,
// each tied to ..." followed by one "- `rule` — ..." bullet per rule.
var designRulesLine = regexp.MustCompile(`^(\w+) rules, each tied to `)

// readmeRulesHeader opens README's table of skylint rules.
const readmeRulesHeader = "| Rule | Invariant it protects |"

var ruleName = regexp.MustCompile("^(?:- |\\| )`(\\w+)`")

var numberWords = []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten"}

// designRules returns the rule bullets of DESIGN.md's skylint section and
// the count its lead-in sentence states.
func designRules(t *testing.T) (names []string, stated string) {
	t.Helper()
	lines := strings.Split(repoFile(t, "DESIGN.md"), "\n")
	for i, line := range lines {
		m := designRulesLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		for _, l := range lines[i+1:] {
			if strings.TrimSpace(l) == "" {
				break
			}
			if r := ruleName.FindStringSubmatch(l); r != nil {
				names = append(names, r[1])
			}
		}
		return names, strings.ToLower(m[1])
	}
	t.Fatalf("DESIGN.md has no rule list (a line matching %q)", designRulesLine)
	return nil, ""
}

// readmeRules returns the rules README's "Static analysis" table names.
func readmeRules(t *testing.T) []string {
	t.Helper()
	lines := strings.Split(repoFile(t, "README.md"), "\n")
	for i, line := range lines {
		if strings.TrimSpace(line) != readmeRulesHeader {
			continue
		}
		var names []string
		for _, row := range lines[i+2:] {
			r := ruleName.FindStringSubmatch(row)
			if r == nil {
				break
			}
			names = append(names, r[1])
		}
		return names
	}
	t.Fatalf("README.md has no rule table (a line %q)", readmeRulesHeader)
	return nil
}

// TestDocumentedRulesAreRegistered: DESIGN.md's rule list, the count it
// states, and README's rule table each name exactly the rules
// lint.Analyzers registers, so deleting or adding a rule cannot leave
// either document describing another linter.
func TestDocumentedRulesAreRegistered(t *testing.T) {
	var want []string
	for _, a := range lint.Analyzers() {
		want = append(want, a.Name)
	}
	sort.Strings(want)
	same := func(doc string, got []string) {
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s names rules %v; lint.Analyzers registers %v", doc, got, want)
		}
	}
	names, stated := designRules(t)
	same("DESIGN.md's rule list", names)
	if len(want) >= len(numberWords) || stated != numberWords[len(want)] {
		t.Errorf("DESIGN.md says %q rules; lint.Analyzers registers %d", stated, len(want))
	}
	same("README's rule table", readmeRules(t))
}
