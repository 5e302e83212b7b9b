package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// mutexheld enforces "guarded by <mu>" field annotations: a struct field
// whose doc or line comment says it is guarded by a sibling mutex field may
// only be touched after a lock of that mutex on the same base expression.
// The check is a per-function-body heuristic — it looks for a
// <base>.<mu>.Lock() or <base>.<mu>.RLock() call earlier in the enclosing
// function's source than the access, not for a dominating lock — which
// catches both the "forgot to lock at all" and the "read first, locked
// later" class of race without a full happens-before analysis.
var mutexheldAnalyzer = &Analyzer{
	Name: "mutexheld",
	Doc:  "fields documented as 'guarded by <mu>' are only accessed under that mutex",
	Run:  runMutexheld,
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

func runMutexheld(p *Pass) {
	guarded := collectGuarded(p)
	if len(guarded) == 0 {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			locked := lockedMutexes(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				structName, ok := localStructOf(p, sel.X)
				if !ok {
					return true
				}
				mu, ok := guarded[structName][sel.Sel.Name]
				if !ok {
					return true
				}
				key := types.ExprString(sel.X) + "." + mu
				if at, ok := locked[key]; !ok || at > sel.Pos() {
					p.Reportf(sel.Pos(),
						"%s.%s is guarded by %s but this function does not lock %s before it", structName, sel.Sel.Name, mu, key)
				}
				return true
			})
		}
	}
}

// collectGuarded scans struct declarations for fields annotated
// "guarded by <mu>", keyed by struct type name then field name.
func collectGuarded(p *Pass) map[string]map[string]string {
	guarded := make(map[string]map[string]string)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					text := field.Doc.Text() + " " + field.Comment.Text()
					m := guardedByRe.FindStringSubmatch(text)
					if m == nil {
						continue
					}
					for _, name := range field.Names {
						if guarded[ts.Name.Name] == nil {
							guarded[ts.Name.Name] = make(map[string]string)
						}
						guarded[ts.Name.Name][name.Name] = m[1]
					}
				}
			}
		}
	}
	return guarded
}

// lockedMutexes returns each "<base>.<mu>" expression on which body calls
// Lock or RLock, with the position of its first such call.
func lockedMutexes(body *ast.BlockStmt) map[string]token.Pos {
	locked := make(map[string]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if mu, ok := sel.X.(*ast.SelectorExpr); ok {
			key := types.ExprString(mu.X) + "." + mu.Sel.Name
			if _, seen := locked[key]; !seen { // Inspect walks in source order
				locked[key] = call.Pos()
			}
		}
		return true
	})
	return locked
}

// localStructOf resolves x to the name of a struct type declared in the
// package under analysis (annotations are package-local).
func localStructOf(p *Pass, x ast.Expr) (string, bool) {
	tv, ok := p.Pkg.Info.Types[x]
	if !ok {
		return "", false
	}
	named, ok := namedType(tv.Type)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg() != p.Pkg.Types {
		return "", false
	}
	return obj.Name(), true
}
