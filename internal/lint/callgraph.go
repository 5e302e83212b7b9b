package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the second half of the module-level analysis layer: the
// module's function declarations with their statically resolved callees,
// a call graph keyed by *types.Func. Per-package AST walks cannot see that
// a function locks a mutex four frames down in another package; the call
// graph can, and lockorder traverses it. Only statically resolvable
// callees are recorded — direct function calls and method calls whose
// callee identifier resolves to a *types.Func. Interface dispatch and
// calls through function values are invisible here by construction, and
// lockorder treats them as analysis boundaries.

// FuncNode is one declared function or method of the module.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists the statically resolved callees in source order,
	// including those called inside function literals (attributed to the
	// enclosing declaration). A callee may belong to any package,
	// including the standard library.
	Calls []*types.Func
}

// Funcs returns (once, memoized) every function declaration of the module
// that has a body, sorted by source position so that traversal order
// never depends on map iteration.
func (m *Module) Funcs() []*FuncNode {
	if m.funcs != nil {
		return m.funcs
	}
	var funcs []*FuncNode
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := staticCallee(pkg.Info, call); callee != nil {
						node.Calls = append(node.Calls, callee)
					}
					return true
				})
				funcs = append(funcs, node)
			}
		}
	}
	sort.Slice(funcs, func(i, j int) bool {
		return funcs[i].Decl.Pos() < funcs[j].Decl.Pos()
	})
	m.funcs = funcs
	return funcs
}

// FuncCFG builds (memoized) the CFG for one declared function.
func (m *Module) FuncCFG(fd *ast.FuncDecl) *CFG {
	if m.cfgs == nil {
		m.cfgs = make(map[*ast.FuncDecl]*CFG)
	}
	if c, ok := m.cfgs[fd]; ok {
		return c
	}
	c := BuildCFG(fd.Body)
	m.cfgs[fd] = c
	return c
}

// staticCallee resolves the target of a call expression to a *types.Func,
// or nil when the callee is dynamic (function value, interface method
// through a non-selector path) or a type conversion / builtin.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// shortPkg returns the last element of an import path.
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
