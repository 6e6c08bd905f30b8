// Package lockorder implements the cqlint analyzer enforcing a global
// lock acquisition order across the serving stack's named mutexes: a
// cycle in the may-acquire-while-holding graph is a potential
// deadlock, and the whole point of checking it statically is that the
// two halves of a deadlock are always individually innocent and
// usually in different files.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"extremalcq/internal/lint/analysis"
	"extremalcq/internal/lint/cfg"
	"extremalcq/internal/lint/ctxloop"
	"extremalcq/internal/lint/dataflow"
	"extremalcq/internal/lint/names"
	"extremalcq/internal/lint/scope"
)

// Analyzer reports cycles in the cross-package lock-order graph.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: `mutex acquisition order must be globally acyclic

Within the serving packages (engine, store, enum, obs, universe)
every function's lock acquisitions are tracked flow-sensitively over
its control-flow graph: acquiring lock B while holding lock A records
the edge A→B. Edges are exported as package facts and combined across
packages; a cycle in the combined graph is a potential deadlock and is
reported with the file:line of every edge on the cycle. Acquiring a
lock the path already holds (sync mutexes are not reentrant) is
reported directly. Locks are identified by class — pkg.Type.field or
pkg.var — the standard approximation when instances cannot be
distinguished statically.`,
	FactTypes: []analysis.Fact{(*Acquires)(nil), (*Edges)(nil)},
	Run:       run,
}

// Acquires is the object fact summarizing the lock classes a function
// may acquire, directly or through its callees, so a caller holding a
// lock across a call sees the ordering the callee creates.
type Acquires struct{ Locks []string }

// AFact implements analysis.Fact.
func (*Acquires) AFact() {}

// Edge is one observed ordering: To was (or may be) acquired while
// From was held. Pos is "file:line" — a string, because token.Pos
// values are meaningless outside the producing process.
type Edge struct {
	From, To string
	Pos      string
}

// Edges is the package fact carrying one package's contribution to
// the global lock-order graph.
type Edges struct{ List []Edge }

// AFact implements analysis.Fact.
func (*Edges) AFact() {}

// ownEdge is an edge observed in the package under analysis, which
// still has a real token.Pos to report at.
type ownEdge struct {
	Edge
	pos token.Pos
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.IsLockOrder(pass.Pkg.Path()) {
		return nil, nil
	}

	fns := ctxloop.CollectFuncs(pass)

	// Phase 1: per-function may-acquire summaries to a same-package
	// fixpoint (imported summaries are already final), exported as
	// object facts for callers in other packages.
	acquires := make(map[*types.Func]map[string]bool)
	for fn, decl := range fns {
		acquires[fn] = directLocks(pass, decl.Body)
	}
	for changed := true; changed; {
		changed = false
		for fn, decl := range fns {
			for callee := range calleesOf(pass, decl.Body) {
				for l := range calleeLocks(pass, acquires, callee) {
					if !acquires[fn][l] {
						acquires[fn][l] = true
						changed = true
					}
				}
			}
		}
	}
	for fn, locks := range acquires {
		if len(locks) > 0 {
			pass.ExportObjectFact(fn, &Acquires{Locks: sorted(locks)})
		}
	}

	// Phase 2: flow-sensitive held-set analysis over each function
	// (and each closure, as its own graph with nothing held on entry),
	// emitting ordering edges and direct re-acquisition diagnostics.
	var own []ownEdge
	seen := make(map[[2]string]bool)
	emit := func(from, to string, pos token.Pos) {
		if from == to {
			return
		}
		k := [2]string{from, to}
		if seen[k] {
			return
		}
		seen[k] = true
		p := pass.Fset.Position(pos)
		own = append(own, ownEdge{
			Edge: Edge{From: from, To: to, Pos: fmt.Sprintf("%s:%d", trimPath(p.Filename), p.Line)},
			pos:  pos,
		})
	}
	for _, file := range pass.Files {
		if scope.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, body := range functionBodies(file) {
			analyzeBody(pass, body, acquires, emit)
		}
	}
	sort.Slice(own, func(i, j int) bool { return own[i].pos < own[j].pos })

	// Phase 3: combine with every visible package's edges and report
	// cycles that include at least one of this package's own edges (a
	// cycle living entirely in dependencies was already reported
	// there).
	all := make(map[[2]string]Edge)
	for _, pf := range pass.AllPackageFacts(new(Edges)) {
		for _, e := range pf.Fact.(*Edges).List {
			all[[2]string{e.From, e.To}] = e
		}
	}
	for _, e := range own {
		all[[2]string{e.From, e.To}] = e.Edge
	}
	adj := make(map[string][]Edge)
	for _, e := range all {
		adj[e.From] = append(adj[e.From], e)
	}
	for _, es := range adj {
		sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
	}
	for _, e := range own {
		if path := shortestPath(adj, e.To, e.From); path != nil {
			cycle := append([]Edge{e.Edge}, path...)
			var sb strings.Builder
			for _, c := range cycle {
				fmt.Fprintf(&sb, "%s → ", c.From)
			}
			sb.WriteString(cycle[0].From)
			var at strings.Builder
			for i, c := range cycle {
				if i > 0 {
					at.WriteString(", ")
				}
				fmt.Fprintf(&at, "%s→%s at %s", c.From, c.To, c.Pos)
			}
			pass.Reportf(e.pos, "lock-order cycle (potential deadlock): %s [%s]; pick one global order for these locks", sb.String(), at.String())
		}
	}

	// Export after the cycle check: the fact is this package's own
	// contribution only.
	if len(own) > 0 {
		list := make([]Edge, len(own))
		for i, e := range own {
			list[i] = e.Edge
		}
		pass.ExportPackageFact(&Edges{List: list})
	}
	return nil, nil
}

// analyzeBody runs the held-set dataflow over one function body and
// feeds each acquisition made under held locks to emit.
func analyzeBody(pass *analysis.Pass, body *ast.BlockStmt, acquires map[*types.Func]map[string]bool, emit func(from, to string, pos token.Pos)) {
	g := cfg.New(body)
	res := dataflow.Solve(g, dataflow.Problem[map[string]bool]{
		Dir:      dataflow.Forward,
		Boundary: func() map[string]bool { return map[string]bool{} },
		Init:     func() map[string]bool { return map[string]bool{} },
		Join: func(a, b map[string]bool) map[string]bool {
			out := make(map[string]bool, len(a)+len(b))
			for k := range a {
				out[k] = true
			}
			for k := range b {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b map[string]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Transfer: func(b *cfg.Block, in map[string]bool) map[string]bool {
			held := make(map[string]bool, len(in))
			for k := range in {
				held[k] = true
			}
			applyBlock(pass, b, held, nil, nil)
			return held
		},
	})
	// Reporting sweep: one deterministic pass per block from its
	// fixpoint entry fact.
	for _, b := range g.Blocks {
		held := make(map[string]bool, len(res.In[b]))
		for k := range res.In[b] {
			held[k] = true
		}
		applyBlock(pass, b, held, acquires, emit)
	}
}

// applyBlock walks a block's nodes in order, updating held in place.
// With emit non-nil it also reports: each acquisition of l under held
// locks emits edges held→l (and a direct diagnostic when l is already
// held), and each call to a lock-acquiring callee under held locks
// emits edges to the callee's summary locks.
func applyBlock(pass *analysis.Pass, b *cfg.Block, held map[string]bool, acquires map[*types.Func]map[string]bool, emit func(from, to string, pos token.Pos)) {
	for _, n := range b.Nodes {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m.(type) {
			case *ast.FuncLit, *ast.DeferStmt:
				// Closures run elsewhere; deferred unlocks run at exit,
				// so a deferred Unlock keeps the lock held here (the
				// defers block holds the bare call and releases there).
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if lock, acq, isOp := lockOp(pass.TypesInfo, call); isOp {
				if acq {
					if emit != nil {
						if held[lock] {
							pass.Reportf(call.Pos(), "%s acquired while already held on this path: sync mutexes are not reentrant (self-deadlock)", lock)
						}
						for h := range held {
							emit(h, lock, call.Pos())
						}
					}
					held[lock] = true
				} else {
					delete(held, lock)
				}
				return true
			}
			if emit != nil && len(held) > 0 {
				if callee := ctxloop.StaticCallee(pass, call); callee != nil {
					for l := range calleeLocks(pass, acquires, callee) {
						for h := range held {
							emit(h, l, call.Pos())
						}
					}
				}
			}
			return true
		})
	}
}

// lockOp classifies call as a Lock/RLock (acquire=true) or
// Unlock/RUnlock on a canonically named lock.
func lockOp(info *types.Info, call *ast.CallExpr) (lock string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	lock, ok = names.Canon(info, sel.X)
	return lock, acquire, ok
}

// directLocks collects the lock classes body may acquire anywhere,
// including inside closures (a closure invoked during the call still
// orders its locks after the caller's held set).
func directLocks(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	if body == nil {
		return out
	}
	ast.Inspect(body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if lock, acq, isOp := lockOp(pass.TypesInfo, call); isOp && acq {
				out[lock] = true
			}
		}
		return true
	})
	return out
}

// calleesOf collects the statically resolvable callees of body.
func calleesOf(pass *analysis.Pass, body *ast.BlockStmt) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	if body == nil {
		return out
	}
	ast.Inspect(body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if callee := ctxloop.StaticCallee(pass, call); callee != nil {
				out[callee] = true
			}
		}
		return true
	})
	return out
}

// calleeLocks returns the lock classes callee may acquire: the
// same-package summary, or the imported Acquires fact.
func calleeLocks(pass *analysis.Pass, acquires map[*types.Func]map[string]bool, callee *types.Func) map[string]bool {
	if locks, ok := acquires[callee]; ok {
		return locks
	}
	if callee.Pkg() == nil || callee.Pkg() == pass.Pkg {
		return nil
	}
	var f Acquires
	if !pass.ImportObjectFact(callee, &f) {
		return nil
	}
	out := make(map[string]bool, len(f.Locks))
	for _, l := range f.Locks {
		out[l] = true
	}
	return out
}

// functionBodies yields the body of every declared function plus every
// function literal in file, each analyzed as its own graph.
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				out = append(out, d.Body)
			}
		case *ast.FuncLit:
			out = append(out, d.Body)
		}
		return true
	})
	return out
}

// shortestPath returns the edges of a shortest from→to walk in adj,
// or nil when unreachable.
func shortestPath(adj map[string][]Edge, from, to string) []Edge {
	type hop struct {
		node string
		via  []Edge
	}
	visited := map[string]bool{from: true}
	queue := []hop{{node: from}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.node == to {
			return h.via
		}
		for _, e := range adj[h.node] {
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, hop{node: e.To, via: append(append([]Edge(nil), h.via...), e)})
			}
		}
	}
	// to may equal from only via a real cycle, handled by the check
	// above on dequeue of later hops; reaching here means none exists.
	return nil
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// trimPath keeps the last two path elements of a filename so exported
// positions stay stable across checkouts.
func trimPath(file string) string {
	parts := strings.Split(file, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}
