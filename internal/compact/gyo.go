package compact

import (
	"context"
	"slices"

	"extremalcq/internal/instance"
	"extremalcq/internal/solve"
)

// This file decides α-acyclicity of a source by GYO ear removal on its
// compiled form, and builds the join forest the join-tree evaluator
// (jointree.go) runs on. The query hypergraph has one edge per source
// fact, over the fact's distinct variables; conditioned on a set C of
// variables (see cutset.go), over those outside C.

// joinForest is the GYO verdict on a source and, when the source is
// α-acyclic, its join forest: one tree per connected component, with
// the running-intersection property (the facts holding a variable form
// one connected subtree). A cyclic source's forest is the verdict
// alone.
type joinForest struct {
	acyclic bool
	// parent maps each fact to its join-tree parent (-1 for roots).
	parent []int32
	// order is the ear-removal order: every fact comes before its
	// parent, so it runs bottom-up, and reversed top-down.
	order []uint32
	// pre is the descent order: the roots in fact order, each followed
	// by its children's subtrees, children in fact order.
	pre []uint32
	// Fact e shares with its parent the variables at its positions
	// cpos[sharedOff[e]:sharedOff[e+1]], which sit at the same entries
	// of ppos in the parent, and binds the distinct variables at its
	// positions fresh[freshOff[e]:freshOff[e+1]].
	sharedOff, cpos, ppos []uint32
	freshOff, fresh       []uint32
}

// Acyclic reports whether the instance, as the source of a hom search,
// is α-acyclic: whether GYO ear removal removes every fact. The verdict
// and forest are kept on the instance's compiled form until it is
// mutated. GYO checks ctx once per pass; a probe cut short keeps nothing.
func Acyclic(ctx context.Context, in *instance.Instance) bool {
	return compile(in).joinForest(ctx).acyclic
}

// joinForest returns the form's GYO verdict and forest, computing and
// publishing them on first use.
func (f *Form) joinForest(ctx context.Context) *joinForest {
	if fo := f.forest.Load(); fo != nil {
		return fo
	}
	fo := &joinForest{}
	if g := f.newEars(nil); g.remove(ctx) {
		fo = g.forest()
	}
	f.forest.CompareAndSwap(nil, fo)
	return f.forest.Load()
}

// ears is the state of GYO ear removal over a form's facts, with the
// variables masked[v] (none when masked is nil) removed from every
// edge. Ear removal is confluent, and masking a variable only makes
// more facts ears, so a run that got stuck can mask a variable and go
// on where it stopped (see peel): every fact removed keeps a parent
// that holds each variable it shared with a live fact, and the
// variables never masked keep the running-intersection property.
type ears struct {
	f      *Form
	masked []bool
	// occ counts the live facts holding each variable outside the mask.
	occ     []uint32
	removed []bool
	parent  []int32
	order   []uint32
	shared  []uint32 // scratch: the variables an ear candidate shares
}

func (f *Form) newEars(masked []bool) *ears {
	n := len(f.facts)
	g := &ears{f: f, masked: masked, occ: make([]uint32, len(f.vals)),
		removed: make([]bool, n), parent: make([]int32, n), order: make([]uint32, 0, n)}
	for v := range g.occ {
		if masked == nil || !masked[v] {
			g.occ[v] = f.varOff[v+1] - f.varOff[v]
		}
	}
	return g
}

// mask removes variable v from every edge; the caller's masked slice
// records it.
func (g *ears) mask(v uint32) {
	g.masked[v] = true
	g.occ[v] = 0
}

// remove runs ear removal until no live fact is an ear, and reports
// whether every fact was removed. A fact is an ear when the variables
// it shares with other live facts all lie in one live fact, its
// parent; a fact sharing no variable with a live fact is a root. Each
// pass scans the live facts in fact order and removes every ear it
// meets. A parent must hold each shared variable, so it is sought only
// among the facts of the first one, in fact order: the same first
// parent a scan of every fact finds, at the cost of that variable's
// degree. GYO checks ctx once per pass.
func (g *ears) remove(ctx context.Context) bool {
	f, n := g.f, len(g.f.facts)
	for progress := true; progress && len(g.order) < n; {
		solve.Check(ctx)
		progress = false
		for e := range f.facts {
			if g.removed[e] {
				continue
			}
			fe := &f.facts[e]
			g.shared = g.shared[:0]
			for j, v := range fe.args {
				if fe.firstPos[j] == uint32(j) && g.occ[v] > 1 {
					g.shared = append(g.shared, v)
				}
			}
			p := -1
			if len(g.shared) > 0 {
				x := g.shared[0]
				for _, w := range f.varFacts[f.varOff[x]:f.varOff[x+1]] {
					if int(w) != e && !g.removed[w] && f.holdsAll(int(w), g.shared) {
						p = int(w)
						break
					}
				}
				if p < 0 {
					continue // not an ear (yet)
				}
			}
			g.parent[e], g.removed[e] = int32(p), true
			for j, v := range fe.args {
				if fe.firstPos[j] == uint32(j) && g.occ[v] > 0 {
					g.occ[v]--
				}
			}
			g.order = append(g.order, uint32(e))
			progress = true
		}
	}
	return len(g.order) == n
}

// forest builds the join forest of a complete ear removal.
func (g *ears) forest() *joinForest {
	return g.f.newJoinForest(g.parent, g.order, g.masked)
}

// holdsAll reports whether fact w holds every variable of vars.
func (f *Form) holdsAll(w int, vars []uint32) bool {
	for _, x := range vars {
		if !slices.Contains(f.facts[w].args, x) {
			return false
		}
	}
	return true
}

// newJoinForest completes a successful ear removal: the descent order
// and each fact's shared and fresh positions. A masked variable is
// never shared: the rows a leaf seeds all agree on its one value, so
// every fact holding it binds it as fresh.
func (f *Form) newJoinForest(parent []int32, order []uint32, masked []bool) *joinForest {
	n := len(parent)
	fo := &joinForest{acyclic: true, parent: parent, order: order, pre: make([]uint32, 0, n)}

	// A fact whose variables in common with its parent were all masked
	// after its removal becomes a root: no variable outside the mask
	// runs through that link, and a link must share one.
	if masked != nil {
		for e, p := range parent {
			if p >= 0 && !slices.ContainsFunc(f.facts[e].args, func(v uint32) bool {
				return !masked[v] && slices.Contains(f.facts[p].args, v)
			}) {
				parent[e] = -1
			}
		}
	}

	// Children as linked lists in fact order, then an iterative preorder
	// walk of each tree.
	first, next := make([]int32, n), make([]int32, n)
	for e := range first {
		first[e], next[e] = -1, -1
	}
	for e := n - 1; e >= 0; e-- {
		if p := parent[e]; p >= 0 {
			next[e], first[p] = first[p], int32(e)
		}
	}
	for root := range parent {
		if parent[root] >= 0 {
			continue
		}
		//cqlint:ignore ctxloop -- visits each fact of one finite tree once, climbing back at most its depth
		for e := int32(root); e >= 0; {
			fo.pre = append(fo.pre, uint32(e))
			if first[e] >= 0 {
				e = first[e]
				continue
			}
			//cqlint:ignore ctxloop -- climbs parent links toward the root, at most the tree's depth
			for e != int32(root) && next[e] < 0 {
				e = parent[e]
			}
			if e == int32(root) {
				break
			}
			e = next[e]
		}
	}

	fo.sharedOff, fo.freshOff = make([]uint32, n+1), make([]uint32, n+1)
	for e := range f.facts {
		fe := &f.facts[e]
		for j := range fe.args {
			if fe.firstPos[j] != uint32(j) {
				continue
			}
			k := -1
			if p := parent[e]; p >= 0 && (masked == nil || !masked[fe.args[j]]) {
				k = slices.Index(f.facts[p].args, fe.args[j])
			}
			if k >= 0 {
				fo.cpos, fo.ppos = append(fo.cpos, uint32(j)), append(fo.ppos, uint32(k))
			} else {
				fo.fresh = append(fo.fresh, uint32(j))
			}
		}
		fo.sharedOff[e+1], fo.freshOff[e+1] = uint32(len(fo.cpos)), uint32(len(fo.fresh))
	}
	return fo
}
