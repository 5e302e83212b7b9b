package lint

import (
	"go/ast"
	"go/token"
)

// ctxgoScope lists the long-lived/server packages where an unjoined
// goroutine outlives its caller: leaked goroutines in these paths hold
// simulation state or sockets until process exit.
var ctxgoScope = []string{
	"internal/skyd",
	"cmd/skyd",
	"internal/chaos",
	"internal/tenant",
	"internal/warmpool",
	"internal/control",
}

var ctxgoAnalyzer = &Analyzer{
	Name: "ctxgo",
	Doc:  "no bare go func(){} in server packages without a WaitGroup, channel join, or context in scope",
	Run:  runCtxgo,
}

func runCtxgo(p *Pass) {
	if !pkgInScope(p.Pkg.Path, ctxgoScope) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			joined := hasCtxParam(p, fd) || hasJoin(p, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if _, bare := g.Call.Fun.(*ast.FuncLit); bare && !joined {
					p.Reportf(g.Pos(),
						"bare go func(){...}() with no WaitGroup, channel join, or context in scope leaks the goroutine; add a join or cancellation path")
				}
				return true
			})
		}
	}
}

// hasCtxParam reports whether fn takes a context.Context (including the
// receiver, for methods carrying a context field is out of scope).
func hasCtxParam(p *Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if tv, ok := p.Pkg.Info.Types[field.Type]; ok && tv.Type != nil &&
			tv.Type.String() == "context.Context" {
			return true
		}
	}
	return false
}

// hasJoin reports whether body contains any of the accepted goroutine
// lifecycle mechanisms: a sync.WaitGroup Add/Done/Wait call, a channel send
// or receive, or a select statement.
func hasJoin(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isWaitGroupMethod(p, sel) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isWaitGroupMethod(p *Pass, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return false
	}
	named, ok := namedType(p.Pkg.Info.Types[sel.X].Type)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
