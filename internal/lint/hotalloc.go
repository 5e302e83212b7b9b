package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotalloc proves allocation-freedom statically. The repo's hot paths —
// the router's per-invocation issue path, the simulation kernel's event
// loop, the admission gate — are guarded dynamically by
// testing.AllocsPerRun tests, but those only fire after the regression is
// committed. This rule moves the check to `make lint`:
// a function annotated
//
//	//lint:hotpath
//
// in its doc comment, and everything it transitively calls inside the
// module, must contain no allocation site. Flagged sites: map/slice
// literals, &composite literals, make/new, append (the backing array may
// grow), function literals (closures), fmt calls, non-constant string
// concatenation, and concrete values boxed into interface parameters at
// call sites. Every finding names the call chain from the annotated root,
// so a regression four frames deep is still attributed to the invariant
// it breaks.
//
// Cold paths inside hot functions (pool warm-up, error construction on
// the shed path) are exempted with `//lint:allow hotalloc -- reason` on
// the offending line; an allow on a call site additionally stops the
// traversal into that callee, so one annotation exempts a deliberate
// slow-path helper wholesale.
//
// Interface dispatch and calls through function values are invisible to
// the static call graph; the rule compensates by flagging the boxing and
// the closure creation themselves, which is where those allocations
// happen.
var hotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "//lint:hotpath functions and their transitive callees must be allocation-free",
}

// RunModule is wired in init: runHotalloc consults Module.Allows, which
// consults the registry, which contains this analyzer — a static
// initialization cycle the compiler rejects if expressed as a literal.
func init() { hotallocAnalyzer.RunModule = runHotalloc }

const hotpathDirective = "//lint:hotpath"

// hasHotpathDirective reports whether fd's doc comment carries the
// //lint:hotpath directive.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// HotpathRoots returns the display names of every //lint:hotpath-annotated
// function in the module, sorted. Tests use it to assert the annotations
// on the real hot paths are present — i.e. that hotalloc actually guards
// them and deleting an annotation would be a visible change.
func HotpathRoots(mod *Module) []string {
	var names []string
	for _, node := range mod.CallGraph().Ordered {
		if hasHotpathDirective(node.Decl) {
			names = append(names, FuncDisplayName(node.Obj))
		}
	}
	sort.Strings(names)
	return names
}

func runHotalloc(p *Pass) {
	g := p.Mod.CallGraph()
	allows := p.Mod.Allows()

	// BFS from every annotated root in source order: shortest chains win,
	// ties resolved by source order, so finding messages are deterministic.
	type visit struct {
		node  *FuncNode
		chain []*types.Func
	}
	var queue []visit
	for _, node := range g.Ordered {
		if hasHotpathDirective(node.Decl) {
			queue = append(queue, visit{node: node, chain: []*types.Func{node.Obj}})
		}
	}
	seen := make(map[*types.Func]bool)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if seen[v.node.Obj] {
			continue
		}
		seen[v.node.Obj] = true
		scanHotAllocs(p, v.node, v.chain)
		for _, site := range v.node.Calls {
			callee, ok := g.Node(site.Callee)
			if !ok || seen[site.Callee] {
				continue
			}
			pos := p.Mod.Fset.Position(site.Call.Pos())
			if allows.allowed(pos.Filename, pos.Line, "hotalloc") {
				continue // an allowed call site exempts the whole callee
			}
			queue = append(queue, visit{node: callee, chain: append(append([]*types.Func{}, v.chain...), site.Callee)})
		}
	}
}

// chainString renders a root→...→current call chain for findings.
func chainString(chain []*types.Func) string {
	parts := make([]string, len(chain))
	for i, fn := range chain {
		parts[i] = FuncDisplayName(fn)
	}
	return strings.Join(parts, " → ")
}

// scanHotAllocs reports every allocation site in node's body, labelled
// with the call chain from the hotpath root.
func scanHotAllocs(p *Pass, node *FuncNode, chain []*types.Func) {
	info := node.Pkg.Info
	via := chainString(chain)
	report := func(pos token.Pos, what string) {
		p.Reportf(pos, "%s on //lint:hotpath path %s", what, via)
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "function literal allocates a closure")
			return false // the literal's body runs as a different function
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(info, n) && info.Types[n].Value == nil {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(info, n.Lhs[0]) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			scanHotCall(p, info, n, report)
		}
		return true
	})
}

// scanHotCall flags allocating builtins, fmt calls, and interface boxing
// at one call expression.
func scanHotCall(p *Pass, info *types.Info, call *ast.CallExpr, report func(token.Pos, string)) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow and reallocate its backing array; preallocate off the hot path")
			}
			return
		}
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if pkg, ok := importedPkg(info, sel.X); ok && pkg == "fmt" {
			report(call.Pos(), fmt.Sprintf("fmt.%s formats through reflection and allocates", sel.Sel.Name))
			return // the boxing of its ...any arguments is implied
		}
	}
	// Interface boxing: a concrete value passed where an interface is
	// expected is copied to the heap unless escape analysis saves it —
	// which the hot path must not gamble on.
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() { // conversion, not a call
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice itself
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := info.Types[arg].Type
		if at == nil || !types.IsInterface(pt) || types.IsInterface(at.Underlying()) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), fmt.Sprintf("%s argument boxed into interface parameter allocates", at.String()))
	}
}

// isStringExpr reports whether e's static type is a string.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
