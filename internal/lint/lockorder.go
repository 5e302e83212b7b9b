package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder detects AB/BA deadlock potential statically. Two goroutines
// that acquire the same two mutexes in opposite orders can deadlock; the
// race detector only notices when the interleaving actually happens,
// which overnight simulation batches are good at finding and CI is not.
// This rule builds a module-wide mutex acquisition-order graph and
// reports every edge that participates in a cycle.
//
// Mutex identity is the declared field or variable (*types.Var), not the
// instance: "(router.burstState).mu" names every burstState's mutex at
// once, which is the granularity at which ordering disciplines are
// stated. Edges come from three sources, all per-function forward walks
// over the CFG with a may-be-held set:
//
//   - direct nesting: b.mu.Lock() while a.mu is held adds a→b;
//   - transitive acquisition: calling pkgb.Poke() while a.mu is held adds
//     a→x for every mutex x that Poke (or anything it calls) locks,
//     computed as a fixpoint over the call graph — this is what sees
//     cycles split across packages;
//   - "guarded by" annotations (see mutexheld): a function that touches a
//     field guarded by mu without locking mu itself is, per that
//     contract, called with mu held — so mu joins its entry held-set.
//
// defer'd unlocks do not release within the body (they run at exit), and
// function literals are skipped: a closure handed to a scheduler runs
// later, not under the locks held at creation.
var lockorderAnalyzer = &Analyzer{
	Name:      "lockorder",
	Doc:       "mutex acquisition order must be acyclic module-wide",
	RunModule: runLockorder,
}

// lockEdge is one observed acquisition "to locked while from held".
type lockEdge struct {
	from, to *types.Var
	pos      token.Pos
}

type lockorderState struct {
	pass  *Pass
	funcs []*FuncNode
	// display memoizes human-readable mutex names: "(pkg.Type).field" for
	// struct fields, "pkg.name" for variables.
	display map[*types.Var]string
	// acquires summarizes, per function, every mutex it may lock directly
	// or transitively (call-graph fixpoint).
	acquires map[*types.Func]map[*types.Var]bool
	// guardCache memoizes per-package "guarded by" annotation scans.
	guardCache map[*Package]map[string]map[string]string
	edges      []lockEdge
}

func runLockorder(p *Pass) {
	st := &lockorderState{
		pass:     p,
		funcs:    p.Mod.Funcs(),
		display:  make(map[*types.Var]string),
		acquires: make(map[*types.Func]map[*types.Var]bool),
	}
	st.buildSummaries()
	for _, node := range st.funcs {
		st.collectEdges(node)
	}
	st.reportCycles()
}

// mutexMethod classifies sel as a sync.Mutex/RWMutex method call and
// resolves the mutex identity. acquired=true for Lock/RLock, false for
// Unlock/RUnlock; mu=nil when sel is not a mutex method or the receiver
// cannot be resolved to a declared field/variable.
func (st *lockorderState) mutexMethod(info *types.Info, sel *ast.SelectorExpr) (mu *types.Var, acquired bool) {
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquired = true
	case "Unlock", "RUnlock":
	default:
		return nil, false
	}
	named, ok := namedType(typeOf(info, sel.X))
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return nil, false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return nil, false
	}
	return st.mutexVar(info, sel.X), acquired
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// mutexVar resolves the expression denoting a mutex to its declared
// *types.Var (field or variable), registering a display name.
func (st *lockorderState) mutexVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok {
			return nil
		}
		if _, seen := st.display[v]; !seen {
			name := v.Name()
			if v.Pkg() != nil {
				name = shortPkg(v.Pkg().Path()) + "." + name
			}
			st.display[v] = name
		}
		return v
	case *ast.SelectorExpr:
		v, ok := info.Uses[e.Sel].(*types.Var)
		if !ok {
			return nil
		}
		if !v.IsField() {
			// Package-qualified variable: locka.Mu.
			if _, isPkg := importedPkg(info, e.X); !isPkg {
				return nil
			}
			if _, seen := st.display[v]; !seen {
				name := v.Name()
				if v.Pkg() != nil {
					name = shortPkg(v.Pkg().Path()) + "." + name
				}
				st.display[v] = name
			}
			return v
		}
		if _, seen := st.display[v]; !seen {
			name := v.Name()
			if named, ok := namedType(typeOf(info, e.X)); ok && named.Obj().Pkg() != nil {
				name = "(" + shortPkg(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + ")." + v.Name()
			}
			st.display[v] = name
		}
		return v
	case *ast.StarExpr:
		return st.mutexVar(info, e.X)
	}
	return nil
}

// buildSummaries computes the transitive may-acquire set of every module
// function by fixpoint over the call graph.
func (st *lockorderState) buildSummaries() {
	for _, node := range st.funcs {
		direct := make(map[*types.Var]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				if mu, acq := st.mutexMethod(node.Pkg.Info, sel); mu != nil && acq {
					direct[mu] = true
				}
			}
			return true
		})
		st.acquires[node.Obj] = direct
	}
	for changed := true; changed; {
		changed = false
		for _, node := range st.funcs {
			set := st.acquires[node.Obj]
			for _, callee := range node.Calls {
				for mu := range st.acquires[callee] {
					if !set[mu] {
						set[mu] = true
						changed = true
					}
				}
			}
		}
	}
}

// entryHeld derives the caller-holds contract from "guarded by" field
// annotations: touching a guarded field without locking its mutex in
// this function means the mutex is held on entry.
func (st *lockorderState) entryHeld(node *FuncNode) map[*types.Var]bool {
	info := node.Pkg.Info
	held := make(map[*types.Var]bool)
	locksItself := make(map[*types.Var]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if mu, acq := st.mutexMethod(info, sel); mu != nil && acq {
			locksItself[mu] = true
			return true
		}
		fv, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok || !fv.IsField() {
			return true
		}
		if mu := st.guardOf(node.Pkg, info, sel, fv); mu != nil {
			held[mu] = true
		}
		return true
	})
	for mu := range locksItself {
		delete(held, mu)
	}
	return held
}

// guardOf returns the sibling mutex field guarding fv per its
// "guarded by <mu>" comment, if any (package-local structs only).
func (st *lockorderState) guardOf(pkg *Package, info *types.Info, sel *ast.SelectorExpr, fv *types.Var) *types.Var {
	named, ok := namedType(typeOf(info, sel.X))
	if !ok || named.Obj().Pkg() != pkg.Types {
		return nil
	}
	guarded := st.guardedFields(pkg)
	muName, ok := guarded[named.Obj().Name()][fv.Name()]
	if !ok {
		return nil
	}
	strct, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < strct.NumFields(); i++ {
		if f := strct.Field(i); f.Name() == muName {
			if _, seen := st.display[f]; !seen {
				st.display[f] = "(" + shortPkg(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + ")." + muName
			}
			return f
		}
	}
	return nil
}

// guardedFields scans pkg's struct declarations for "guarded by" field
// annotations (struct name -> field name -> mutex field name).
func (st *lockorderState) guardedFields(pkg *Package) map[string]map[string]string {
	if st.guardCache == nil {
		st.guardCache = make(map[*Package]map[string]map[string]string)
	}
	if g, ok := st.guardCache[pkg]; ok {
		return g
	}
	guarded := collectGuarded(&Pass{Pkg: pkg})
	st.guardCache[pkg] = guarded
	return guarded
}

// collectEdges walks node's CFG with a may-be-held set, recording an
// order edge at every acquisition (direct or via call summary) that
// happens with other mutexes held.
func (st *lockorderState) collectEdges(node *FuncNode) {
	info := node.Pkg.Info
	cfg := st.pass.Mod.FuncCFG(node.Decl)
	in := make([]map[*types.Var]bool, len(cfg.Blocks))
	for i := range in {
		in[i] = make(map[*types.Var]bool)
	}
	for mu := range st.entryHeld(node) {
		in[cfg.Entry.Index][mu] = true
	}

	transfer := func(held map[*types.Var]bool, n ast.Node, emit bool) {
		ast.Inspect(n, func(inner ast.Node) bool {
			switch inner := inner.(type) {
			case *ast.DeferStmt, *ast.FuncLit:
				// Deferred calls run at exit, closures run wherever they are
				// invoked — neither under the held-set being tracked here.
				return false
			case *ast.CallExpr:
				if sel, ok := unparen(inner.Fun).(*ast.SelectorExpr); ok {
					if mu, acq := st.mutexMethod(info, sel); mu != nil {
						if acq {
							if emit {
								for h := range held {
									if h != mu {
										st.edges = append(st.edges, lockEdge{from: h, to: mu, pos: inner.Pos()})
									}
								}
							}
							held[mu] = true
						} else {
							delete(held, mu)
						}
						return true
					}
				}
				if emit {
					if callee := staticCallee(info, inner); callee != nil {
						for mu := range st.acquires[callee] {
							for h := range held {
								if h != mu {
									st.edges = append(st.edges, lockEdge{from: h, to: mu, pos: inner.Pos()})
								}
							}
						}
					}
				}
			}
			return true
		})
	}

	// Fixpoint on held-sets (may analysis: meet = union), then one replay
	// pass that emits edges from the converged in-states.
	for changed := true; changed; {
		changed = false
		for _, blk := range cfg.Blocks {
			held := make(map[*types.Var]bool, len(in[blk.Index]))
			for mu := range in[blk.Index] {
				held[mu] = true
			}
			for _, n := range blk.Nodes {
				transfer(held, n, false)
			}
			for _, succ := range blk.Succs {
				for mu := range held {
					if !in[succ.Index][mu] {
						in[succ.Index][mu] = true
						changed = true
					}
				}
			}
		}
	}
	for _, blk := range cfg.Blocks {
		held := make(map[*types.Var]bool, len(in[blk.Index]))
		for mu := range in[blk.Index] {
			held[mu] = true
		}
		for _, n := range blk.Nodes {
			transfer(held, n, true)
		}
	}
}

// reportCycles finds strongly connected components of the order graph
// and reports every edge inside one.
func (st *lockorderState) reportCycles() {
	if len(st.edges) == 0 {
		return
	}
	// Deterministic node order: by display name (all nodes are registered
	// in st.display by construction).
	nodes := make([]*types.Var, 0, len(st.display))
	for v := range st.display {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return st.display[nodes[i]] < st.display[nodes[j]] })
	adj := make(map[*types.Var]map[*types.Var]bool)
	for _, e := range st.edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[*types.Var]bool)
		}
		adj[e.from][e.to] = true
	}
	succsOf := func(v *types.Var) []*types.Var {
		var out []*types.Var
		for _, n := range nodes {
			if adj[v][n] {
				out = append(out, n)
			}
		}
		return out
	}

	// Tarjan's SCC.
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	sccOf := make(map[*types.Var]int)
	var stack []*types.Var
	next, nscc := 0, 0
	sizes := make(map[int]int)
	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succsOf(v) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				sccOf[w] = nscc
				sizes[nscc]++
				if w == v {
					break
				}
			}
			nscc++
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	// An edge is cyclic iff both ends sit in the same SCC of size >= 2.
	cycleName := func(id int) string {
		var names []string
		for _, v := range nodes {
			if sccOf[v] == id {
				names = append(names, st.display[v])
			}
		}
		return strings.Join(append(names, names[0]), " → ")
	}
	sort.Slice(st.edges, func(i, j int) bool { return st.edges[i].pos < st.edges[j].pos })
	for _, e := range st.edges {
		if sccOf[e.from] != sccOf[e.to] || sizes[sccOf[e.from]] < 2 {
			continue
		}
		st.pass.Reportf(e.pos,
			"%s acquired while %s is held, but the opposite order also occurs — lock-order cycle %s can deadlock",
			st.display[e.to], st.display[e.from], cycleName(sccOf[e.from]))
	}
}
