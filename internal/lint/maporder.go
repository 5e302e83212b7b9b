package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// maporder guards replay determinism against Go's two deliberately
// randomized constructs: map iteration order and select case choice. A
// simulation run must be a pure function of the model and its seeds; if a
// range over a map decides the order in which events are scheduled, rows
// are traced, or bytes reach a checksum, two runs of the same seed
// diverge. The rule has two passes per function:
//
//  1. Direct: a sink called lexically inside `for k := range m` (map m),
//     or inside a select with >= 2 communication cases, is flagged at the
//     sink.
//  2. Dataflow: a forward taint analysis over the function's CFG. A slice
//     or string built up inside a map-range body (append / string +=
//     feeding off the range variables) is tainted; passing it through
//     sort.* or slices.Sort* kills the taint; a tainted value reaching a
//     sink after the loop is flagged. Ranging over a tainted slice taints
//     the value variable, so a sink fed one element at a time is flagged
//     too. This is what blesses the idiomatic fix — collect keys, sort,
//     then range the sorted slice — while still catching the version that
//     forgets the sort.
//
// Sinks are the module's sim-visible surfaces: event scheduling on the
// simulation Env, the trace and table/CSV writers, encoding/csv, and
// hash.Hash writes (checksums).
var maporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "map-iteration or select order must not reach sim-visible state without a sort",
	Run:  runMaporder,
}

// maporderSimFuncs are the scheduling entry points of the simulation
// kernel: calling one decides event order.
var maporderSimFuncs = map[string]bool{
	"Schedule": true,
	"Go":       true,
	"Trigger":  true,
	"Send":     true,
}

// maporderSink classifies a statically resolved callee as sim-visible
// state, returning a short description for findings.
func maporderSink(callee *types.Func) (string, bool) {
	if callee == nil || callee.Pkg() == nil {
		return "", false
	}
	path, name := callee.Pkg().Path(), callee.Name()
	switch {
	case pkgInScope(path, []string{"internal/sim"}) && maporderSimFuncs[name]:
		return "event scheduling (" + name + ")", true
	case pkgInScope(path, []string{"internal/trace"}):
		return "trace output (" + name + ")", true
	case pkgInScope(path, []string{"internal/tablefmt"}):
		return "table/CSV output (" + name + ")", true
	case path == "encoding/csv":
		return "CSV output (" + name + ")", true
	case path == "hash" || strings.HasPrefix(path, "hash/"):
		return "checksum input (" + name + ")", true
	}
	return "", false
}

// isSortCall reports whether call invokes sort.* or slices.Sort*, the
// blessed ways to impose a deterministic order.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	callee := staticCallee(info, call)
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	path := callee.Pkg().Path()
	return path == "sort" || (path == "slices" && strings.HasPrefix(callee.Name(), "Sort"))
}

func runMaporder(p *Pass) {
	if !pkgInScope(p.Pkg.Path, nodetermScope) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			mo := &maporderFunc{pass: p, info: p.Pkg.Info, fd: fd}
			mo.directPass()
			mo.taintPass()
		}
	}
}

type maporderFunc struct {
	pass *Pass
	info *types.Info
	fd   *ast.FuncDecl
	// mapRanges records every range-over-map statement in the function; a
	// position inside one of their bodies is "inside the loop".
	mapRanges []*ast.RangeStmt
}

// isMapRange reports whether s ranges over a map.
func (mo *maporderFunc) isMapRange(s *ast.RangeStmt) bool {
	t := mo.info.Types[s.X].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func (mo *maporderFunc) inMapRangeBody(pos token.Pos) bool {
	for _, r := range mo.mapRanges {
		if r.Body.Pos() <= pos && pos < r.Body.End() {
			return true
		}
	}
	return false
}

// directPass flags sinks lexically inside a map-range body or a
// multi-case select clause, and collects the map-range statements for the
// taint pass.
func (mo *maporderFunc) directPass() {
	ast.Inspect(mo.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if mo.isMapRange(n) {
				mo.mapRanges = append(mo.mapRanges, n)
				ast.Inspect(n.Body, func(inner ast.Node) bool {
					call, ok := inner.(*ast.CallExpr)
					if !ok {
						return true
					}
					if desc, ok := maporderSink(staticCallee(mo.info, call)); ok {
						mo.pass.Reportf(call.Pos(),
							"%s inside range over map: iteration order is randomized per run; collect keys, sort, then range the slice",
							desc)
					}
					return true
				})
			}
		case *ast.SelectStmt:
			comms := 0
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms < 2 {
				return true
			}
			for _, cl := range n.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok {
					continue
				}
				for _, s := range cc.Body {
					ast.Inspect(s, func(inner ast.Node) bool {
						call, ok := inner.(*ast.CallExpr)
						if !ok {
							return true
						}
						if desc, ok := maporderSink(staticCallee(mo.info, call)); ok {
							mo.pass.Reportf(call.Pos(),
								"%s inside a select with %d communication cases: the runtime picks among ready cases pseudorandomly",
								desc, comms)
						}
						return true
					})
				}
			}
			return false // clause bodies already inspected
		}
		return true
	})
}

// taintSet tracks variables carrying map-iteration-ordered data.
type taintSet map[types.Object]bool

func (t taintSet) clone() taintSet {
	c := make(taintSet, len(t))
	for k := range t {
		c[k] = true
	}
	return c
}

func (t taintSet) equal(o taintSet) bool {
	if len(t) != len(o) {
		return false
	}
	for k := range t {
		if !o[k] {
			return false
		}
	}
	return true
}

// taintPass runs the forward dataflow: gen taint at in-loop accumulation,
// kill it at sort calls, report at sinks outside the loop.
func (mo *maporderFunc) taintPass() {
	if len(mo.mapRanges) == 0 {
		return
	}
	cfg := mo.pass.Mod.FuncCFG(mo.fd)

	// Fixpoint over block in-states: out = transfer(in), meet = union.
	in := make([]taintSet, len(cfg.Blocks))
	out := make([]taintSet, len(cfg.Blocks))
	for i := range cfg.Blocks {
		in[i], out[i] = taintSet{}, taintSet{}
	}
	changed := true
	for changed {
		changed = false
		for _, blk := range cfg.Blocks {
			st := in[blk.Index].clone()
			mo.transferBlock(blk, st, nil)
			if !st.equal(out[blk.Index]) {
				out[blk.Index] = st
				changed = true
			}
			for _, succ := range blk.Succs {
				for obj := range st {
					if !in[succ.Index][obj] {
						in[succ.Index][obj] = true
						changed = true
					}
				}
			}
		}
	}

	// Reporting pass: replay each block's transfer from its final in-state.
	for _, blk := range cfg.Blocks {
		mo.transferBlock(blk, in[blk.Index].clone(), func(call *ast.CallExpr, desc string, obj types.Object) {
			mo.pass.Reportf(call.Pos(),
				"%s receives %q, which carries the order of a range over a map and was never sorted; map iteration order is randomized per run",
				desc, obj.Name())
		})
	}
}

// transferBlock applies a block's nodes to the taint state. On a range
// loop's head, a tainted ranged slice taints the value variable: each
// iteration hands it the next element in map order. The index stays
// clean, since it counts up whatever the order; a sink fed x[i] still
// mentions the tainted x.
func (mo *maporderFunc) transferBlock(blk *Block, st taintSet, report func(*ast.CallExpr, string, types.Object)) {
	for _, n := range blk.Nodes {
		mo.transfer(n, st, report)
	}
	if r := blk.Range; r != nil && r.Value != nil {
		if obj := mo.baseObject(r.X); obj != nil && st[obj] {
			if v := mo.baseObject(r.Value); v != nil {
				st[v] = true
			}
		}
	}
}

// transfer applies one CFG node to the taint state: seeds taint at
// in-loop accumulation, kills it at sorts, and (when report is non-nil)
// reports tainted values reaching sinks outside map-range bodies.
func (mo *maporderFunc) transfer(n ast.Node, st taintSet, report func(*ast.CallExpr, string, types.Object)) {
	ast.Inspect(n, func(inner ast.Node) bool {
		switch inner := inner.(type) {
		case *ast.AssignStmt:
			mo.seedTaint(inner, st)
		case *ast.CallExpr:
			if isSortCall(mo.info, inner) {
				for _, arg := range inner.Args {
					if obj := mo.baseObject(arg); obj != nil {
						delete(st, obj)
					}
				}
				return true
			}
			desc, isSink := maporderSink(staticCallee(mo.info, inner))
			if !isSink || report == nil || mo.inMapRangeBody(inner.Pos()) {
				return true
			}
			for _, arg := range inner.Args {
				for _, obj := range mo.mentioned(arg, st) {
					report(inner, desc, obj)
				}
			}
		}
		return true
	})
}

// seedTaint marks the target of an order-sensitive accumulation inside a
// map-range body: x = append(x, ...) and string x += ... record elements
// in iteration order. Order-insensitive folds (counters, sums, map
// writes keyed by the range key) are deliberately not tainted.
func (mo *maporderFunc) seedTaint(as *ast.AssignStmt, st taintSet) {
	if !mo.inMapRangeBody(as.Pos()) || len(as.Lhs) != 1 {
		return
	}
	obj := mo.baseObject(as.Lhs[0])
	if obj == nil {
		return
	}
	switch as.Tok {
	case token.ADD_ASSIGN:
		if isStringExpr(mo.info, as.Lhs[0]) {
			st[obj] = true
		}
	case token.ASSIGN, token.DEFINE:
		if call, ok := unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := mo.info.Uses[id].(*types.Builtin); isBuiltin {
					st[obj] = true
				}
			}
		}
	}
}

// baseObject resolves the root variable of an lvalue/expression chain
// (x, x[i], x.f, *x) to its types.Object.
func (mo *maporderFunc) baseObject(e ast.Expr) types.Object {
	for {
		switch t := unparen(e).(type) {
		case *ast.Ident:
			if obj := mo.info.Uses[t]; obj != nil {
				return obj
			}
			return mo.info.Defs[t]
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// mentioned returns the tainted objects referenced anywhere inside e, in
// source order.
func (mo *maporderFunc) mentioned(e ast.Expr, st taintSet) []types.Object {
	var objs []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := mo.info.Uses[id]; obj != nil && st[obj] {
			objs = append(objs, obj)
		}
		return true
	})
	return objs
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
