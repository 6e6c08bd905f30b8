package compact

import (
	"context"
	"slices"
)

// This file chooses the conditioning set C of a search, a cycle
// cutset: the source variables the search branches on before the rest
// of the source is α-acyclic, so that the join-tree evaluator finishes
// each assignment of C in one linear pass. C = ∅ is the join tree of an
// α-acyclic source, and C = every variable is the plain backtracker.
// In between, the search branches with GAC and MRV on C's variables
// only, and each leaf, an assignment of C at a GAC fixpoint, runs the
// semi-joins over the residue's join forest, seeded from the leaf's
// domains.
//
// Pinned variables (the source's distinguished elements inside its
// domain) are conditioned away first, at no cost: their domains are
// singletons, so they add no leaf. Greedy peeling then removes the
// variable of highest degree in the GYO residue (the facts ear removal
// leaves) until the rest is acyclic; ties go to the variable that
// shares the most residue facts with C, then to the lowest id. For a
// parity cycle that removes one variable of the closing link, then its
// partner, and the ring of links falls apart into a chain.

// leafBudget bounds the leaves of a cutset search: the product of the
// root-GAC domain sizes of C's unpinned members. A leaf costs one pass
// of seeding and semi-joins, linear in the source and about what one
// propagation from scratch costs, so a search within the budget costs
// at most that many passes plus the branch nodes above them. The
// backtracker gets no such bound below an assignment of C, where it
// may walk 2^n nodes (a parity cycle), but it also refutes many
// searches in a few nodes, where GAC and MRV prune well: 64 keeps the
// cutset search to sources whose cut is one or two variables over
// small domains, or a handful over domains GAC left binary, and leaves
// M4 → K3 (a cut of four variables over three values, 3^4 leaves) to
// the backtracker's 22 nodes. K7 → K6 (6^5 leaves) and K8 → K7 (7^6)
// count on the backtracking path too, but the root's Hall check
// refutes them before either search branches. It is a constant of the
// solver, not an option.
const leafBudget = 64

// maxPeel is log2(leafBudget): peeling stops after that many unpinned
// variables, since each one left with two or more values at least
// doubles the leaves.
const maxPeel = 6

// Path names the way a search went: the join tree (C = ∅), the cutset
// search, or the backtracker (C = every variable).
type Path uint8

const (
	PathJoinTree Path = iota
	PathCutset
	PathBacktrack
)

// Cut is a search's conditioning set C. The zero Cut is every variable:
// the plain backtracker. Otherwise forest is the join forest of the
// source with C's variables removed from every fact, and branch lists
// C's unpinned members, the variables the search branches on, in peel
// order; cond reports C ≠ ∅ (pinned or peeled variables), so forest is
// not the source's own.
type Cut struct {
	forest *joinForest
	branch []uint32
	cond   bool
}

// cutEntry is one cut kept on a cyclic source's form, under the sorted
// pinned variables it was chosen for.
type cutEntry struct {
	pinned []uint32
	cut    Cut
	next   *cutEntry
}

// Cut chooses the conditioning set of r's search: C = ∅ with the
// source's own forest when it is α-acyclic, and otherwise the cut kept
// on the source's form for r's pinned variables, computed on first use.
// The search still compares the cut's leaves with leafBudget after its
// root propagation (see run).
func (r *Rep) Cut(ctx context.Context) Cut {
	if fo := r.src.joinForest(ctx); fo.acyclic {
		return Cut{forest: fo}
	}
	var buf [8]uint32
	pinned := buf[:0]
	for _, a := range r.tuple {
		if v, ok := slices.BinarySearch(r.src.vals, a); ok && !slices.Contains(pinned, uint32(v)) {
			pinned = append(pinned, uint32(v))
		}
	}
	slices.Sort(pinned)
	return r.src.cut(ctx, pinned)
}

// cut returns the cut kept for the pinned variables, peeling and
// publishing it on first use. Concurrent first searches may both peel;
// the list keeps the first published.
func (f *Form) cut(ctx context.Context, pinned []uint32) Cut {
	var e *cutEntry
	for {
		head := f.cuts.Load()
		//cqlint:ignore ctxloop -- walks the form's list of cuts, one per pinned set searched
		for k := head; k != nil; k = k.next {
			if slices.Equal(k.pinned, pinned) {
				return k.cut
			}
		}
		if e == nil {
			e = &cutEntry{pinned: slices.Clone(pinned), cut: f.peel(ctx, pinned)}
		}
		e.next = head
		if f.cuts.CompareAndSwap(head, e) {
			return e.cut
		}
	}
}

// peel conditions a cyclic source on the pinned variables, then removes
// the highest-degree variable of the GYO residue until ear removal
// succeeds, and gives up, C = every variable, after maxPeel variables.
// Each removal resumes ear removal where it got stuck.
func (f *Form) peel(ctx context.Context, pinned []uint32) Cut {
	masked := make([]bool, len(f.vals))
	for _, v := range pinned {
		masked[v] = true
	}
	g := f.newEars(masked)
	var branch []uint32
	shared := make([]int, len(f.vals))
	//cqlint:ignore ctxloop -- peels at most maxPeel variables; remove polls ctx once per pass
	for !g.remove(ctx) {
		if len(branch) == maxPeel {
			return Cut{}
		}
		// g.occ[v] counts the residue facts holding v, the degree;
		// shared[v] those of them that hold a variable of C too.
		clear(shared)
		for e := range f.facts {
			fe := &f.facts[e]
			if g.removed[e] || !slices.ContainsFunc(fe.args, func(v uint32) bool { return masked[v] }) {
				continue
			}
			for j, v := range fe.args {
				if fe.firstPos[j] == uint32(j) {
					shared[v]++
				}
			}
		}
		best := -1
		for v, d := range g.occ {
			if d > 0 && (best < 0 || d > g.occ[best] || d == g.occ[best] && shared[v] > shared[best]) {
				best = v
			}
		}
		if best < 0 { // unreachable: a stuck residue shares variables
			return Cut{}
		}
		g.mask(uint32(best))
		branch = append(branch, uint32(best))
	}
	return Cut{forest: g.forest(), branch: branch, cond: true}
}

// leaves returns the product of the branch variables' domain sizes,
// stopping once it passes leafBudget.
func (s *searcher) leaves(branch []uint32) int {
	n := 1
	for _, v := range branch {
		if n *= s.count(int(v)); n > leafBudget {
			break
		}
	}
	return n
}
