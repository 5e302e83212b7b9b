// Package lint implements skylint, the project's static-analysis pass.
//
// The paper's tables are reproducible only because the simulation stack is
// deterministic (virtual time from sim.Env, seeded streams from
// internal/rng) and race-clean. go vet cannot express those invariants, so
// this package checks them mechanically: a small analyzer framework on
// go/ast + go/parser + go/types (standard library only — go.mod stays
// dependency-free) plus a registry of project-specific rules.
//
// A finding is reported as "file:line: [rule] message" with the file path
// relative to the module root. Individual call sites that are intentionally
// exempt carry an escape comment, either trailing the offending line or on
// the line directly above it:
//
//	time.Sleep(gap) //lint:allow nodeterm -- pacing demos against the wall clock
//
// The comment names one rule (or a comma-separated list) and everything
// after it is a free-form justification. Adding a new analyzer means adding
// one file defining an *Analyzer and listing it in Analyzers. A rule earns
// its place by catching a planted violation that every test lets through;
// a rule whose bug a named test already catches is deleted (DESIGN.md §7).
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a specific source position.
type Finding struct {
	File string // module-root-relative, slash-separated
	Line int
	Rule string
	Msg  string
}

// String renders the canonical "file:line: [rule] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// Analyzer checks one invariant. Per-package analyzers set Run, which is
// invoked once per package; module-level analyzers (those needing the call
// graph or cross-package state) set RunModule, which is invoked exactly
// once with Pass.Pkg == nil. Exactly one of the two must be set.
type Analyzer struct {
	Name      string // rule name used in findings and //lint:allow comments
	Doc       string // one-line description of the invariant protected
	Run       func(*Pass)
	RunModule func(*Pass)
}

// Pass hands one analyzer one package (nil for RunModule), plus a sink for
// findings.
type Pass struct {
	Mod      *Module
	Pkg      *Package
	analyzer *Analyzer
	findings *[]rawFinding
}

type rawFinding struct {
	pos  token.Position
	rule string
	msg  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, rawFinding{
		pos:  p.Mod.Fset.Position(pos),
		rule: p.analyzer.Name,
		msg:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full rule registry.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ctxgoAnalyzer,
		floatdetAnalyzer,
		lockorderAnalyzer,
		maporderAnalyzer,
		mutexheldAnalyzer,
		nilmetricsAnalyzer,
		nodetermAnalyzer,
	}
}

// BadAllowRule is the pseudo-rule under which malformed //lint:allow
// comments are reported. It is a framework check, not a registered
// analyzer: a typo'd rule name silently suppresses nothing, which is worse
// than a loud finding, so Run always emits these regardless of which
// analyzers were selected.
const BadAllowRule = "badallow"

// Run applies analyzers to every package of mod and returns the surviving
// findings — deduplicated, with //lint:allow suppressions applied — sorted
// by file, line, and rule.
func Run(mod *Module, analyzers []*Analyzer) []Finding {
	var raw []rawFinding
	for _, a := range analyzers {
		if a.RunModule != nil {
			a.RunModule(&Pass{Mod: mod, analyzer: a, findings: &raw})
		}
	}
	for _, pkg := range mod.Pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				a.Run(&Pass{Mod: mod, Pkg: pkg, analyzer: a, findings: &raw})
			}
		}
	}

	allows := mod.Allows()
	raw = append(raw, mod.allowErrs...)
	seen := make(map[Finding]bool)
	var out []Finding
	for _, r := range raw {
		if allows.allowed(r.pos.Filename, r.pos.Line, r.rule) {
			continue
		}
		rel := r.pos.Filename
		if p, err := filepath.Rel(mod.Dir, rel); err == nil {
			rel = filepath.ToSlash(p)
		}
		f := Finding{File: rel, Line: r.pos.Line, Rule: r.rule, Msg: r.msg}
		if seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return out
}

// ---------------------------------------------------------------------------
// //lint:allow escape comments

const allowPrefix = "//lint:allow"

// allowSet records which rules are suppressed on which lines of which files.
type allowSet map[string]map[int]map[string]bool // file -> line -> rule

func (s allowSet) allowed(file string, line int, rule string) bool {
	return s[file][line][rule]
}

func (s allowSet) add(file string, line int, rule string) {
	lines, ok := s[file]
	if !ok {
		lines = make(map[int]map[string]bool)
		s[file] = lines
	}
	rules, ok := lines[line]
	if !ok {
		rules = make(map[string]bool)
		lines[line] = rules
	}
	rules[rule] = true
}

// Allows returns (memoized) the module's //lint:allow suppression set. A
// directive suppresses the named rules on its own line (trailing comment)
// and on the line directly below it (standalone comment above a statement).
// Malformed directives — an unknown rule name, or no rule at all — are
// recorded as BadAllowRule findings that Run reports: a typo'd allow
// comment must fail lint, not silently suppress nothing.
func (m *Module) Allows() allowSet {
	if m.allows != nil {
		return m.allows
	}
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	known[BadAllowRule] = true

	set := make(allowSet)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, allowPrefix)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					// "//lint:allow -- reason" forgot the rule list.
					if len(fields) == 0 || fields[0] == "--" {
						m.allowErrs = append(m.allowErrs, rawFinding{
							pos:  pos,
							rule: BadAllowRule,
							msg:  "//lint:allow names no rule; write //lint:allow <rule>[,<rule>] -- reason",
						})
						continue
					}
					for _, rule := range strings.Split(fields[0], ",") {
						if rule == "" {
							continue
						}
						if !known[rule] {
							m.allowErrs = append(m.allowErrs, rawFinding{
								pos:  pos,
								rule: BadAllowRule,
								msg:  fmt.Sprintf("//lint:allow names unknown rule %q, so it suppresses nothing (run skylint -list for rule names)", rule),
							})
							continue
						}
						set.add(pos.Filename, pos.Line, rule)
						set.add(pos.Filename, pos.Line+1, rule)
					}
				}
			}
		}
	}
	m.allows = set
	return set
}

// ---------------------------------------------------------------------------
// Shared analyzer helpers

// pkgInScope reports whether a package import path falls under any of the
// scope entries (each a module-relative path like "internal/sim"): either
// the path ends with the entry or the entry names one of its ancestors.
func pkgInScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasSuffix(path, "/"+s) ||
			strings.Contains(path, "/"+s+"/") || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}
