package compact

import (
	"context"
	"slices"

	"extremalcq/internal/instance"
)

// This file holds the retraction tests of a core computation
// (hom.Core). A retraction that drops an element m only has to move m's
// connected component, since every other component can map to itself
// (Section 2.2). The components are those of the unpinned variables:
// the pinned ones, which every retraction fixes, join nothing.

// Retractions is one pass of a core computation over a Rep built from
// an instance into itself. The components are labelled once, when the
// pass starts; a retraction that succeeds drops the values of its
// component that its witness does not reach, and the pass keeps
// testing the components no retraction has moved yet, with the dropped
// values masked out of their domains. The pass does not retest a moved
// component: its variables still carry the facts of the dropped
// values, so the next pass rebuilds the instance without them.
//
// A component the pass tested without moving it is settled: it stays a
// component of every later instance, each a subinstance of this one,
// so each of its tests would fail again, and the next pass skips it.
type Retractions struct {
	// r is the Rep the pass was built from. init holds a test's seeded
	// domains and roots its component's variables; each test rewrites
	// both.
	r     *Rep
	init  []uint64
	roots []uint32
	// comp labels each candidate variable with its component's least
	// variable, and the others with pinned or settled. moved marks the
	// components whose retraction succeeded, by label.
	comp  []int32
	moved []bool
	// dropped holds the ids the pass's retractions dropped, one
	// domain's words.
	dropped []uint64
}

// Retractions starts a pass over r, which must be built by Build from
// an instance into itself, so that its variables and its target values
// share their ids. It labels the components of the unpinned variables,
// leaving out those the previous pass prev settled; prev is nil on the
// first pass.
func (r *Rep) Retractions(prev *Retractions) *Retractions {
	return &Retractions{r: r, init: make([]uint64, len(r.init)), roots: make([]uint32, 0, r.nv),
		comp: r.components(prev), moved: make([]bool, r.nv), dropped: make([]uint64, r.words)}
}

// The labels of the variables a pass does not test.
const (
	pinned  = -1
	settled = -2
)

// components labels every candidate variable with the least variable
// of its component, the variables a chain of facts joins through
// candidate variables, and every other variable as pinned or settled:
// settled are the values prev tested without moving their component,
// and those it found settled.
func (r *Rep) components(prev *Retractions) []int32 {
	const unlabelled = -3
	src := r.src
	comp := make([]int32, r.nv)
	for v := range comp {
		comp[v] = unlabelled
	}
	for _, a := range r.tuple {
		if v, ok := slices.BinarySearch(src.vals, a); ok {
			comp[v] = pinned
		}
	}
	if prev != nil {
		for v, a := range src.vals {
			u, _ := slices.BinarySearch(prev.r.src.vals, a)
			if c := prev.comp[u]; c == settled || c >= 0 && !prev.moved[c] {
				comp[v] = settled
			}
		}
	}
	queue := make([]uint32, 0, r.nv)
	for v := range comp {
		if comp[v] != unlabelled {
			continue
		}
		comp[v] = int32(v)
		queue = append(queue[:0], uint32(v))
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, fi := range src.varFacts[src.varOff[u]:src.varOff[u+1]] {
				f := &src.facts[fi]
				for j, w := range f.args {
					if f.firstPos[j] == uint32(j) && comp[w] == unlabelled {
						comp[w] = int32(v)
						queue = append(queue, w)
					}
				}
			}
		}
	}
	return comp
}

// Candidate reports whether the pass tests variable v: v is neither
// pinned nor settled, and no retraction of the pass has moved its
// component.
func (x *Retractions) Candidate(v int) bool {
	return x.comp[v] >= 0 && !x.moved[x.comp[v]]
}

// Retract searches for a retraction that drops the candidate variable
// m: a homomorphism of the instance into itself that avoids m and the
// values dropped so far and is the identity outside m's component. So
// the seeded domains clear those values from every variable of m's
// component and pin every other variable to itself. The search is the
// backtracker on one worker, so the witness, and with it the core, does
// not depend on the worker count. On success the values of m's
// component outside the witness's image are dropped and the component
// is moved.
func (x *Retractions) Retract(ctx context.Context, m int) bool {
	r, c, words := x.r, x.comp[m], x.r.words
	copy(x.init, r.init)
	x.roots = x.roots[:0]
	for v := 0; v < r.nv; v++ {
		d := x.init[v*words : (v+1)*words]
		if x.comp[v] != c {
			clear(d)
			d[v/64] = uint64(1) << (v % 64)
			continue
		}
		x.roots = append(x.roots, uint32(v))
		for i := range d {
			d[i] &^= x.dropped[i]
		}
		d[m/64] &^= uint64(1) << (m % 64)
	}
	// The root propagation revises the component's facts; every other
	// fact holds as seeded.
	s := r.newSearcher(ctx, x.init, nil)
	defer s.release()
	for _, v := range x.roots {
		s.pushFactsOf(int(v), ^uint32(0))
	}
	// The witness is the searcher's solution vector, which stays put
	// until the searcher is released.
	var sol []uint32
	if s.propagate() {
		s.search(0, func(w []uint32) bool {
			sol = w
			return false
		})
	}
	if sol == nil {
		return false
	}
	// The witness avoids the dropped values, so the component's values
	// it misses are its new ones.
	for _, v := range x.roots {
		x.dropped[v/64] |= uint64(1) << (v % 64)
	}
	for _, v := range x.roots {
		w := sol[v]
		x.dropped[w/64] &^= uint64(1) << (w % 64)
	}
	x.moved[c] = true
	return true
}

// Keep returns the values the pass's retractions left, the set the
// instance is to be restricted to, or nil when they dropped none.
func (x *Retractions) Keep() map[instance.Value]bool {
	if !slices.ContainsFunc(x.dropped, func(w uint64) bool { return w != 0 }) {
		return nil
	}
	vals := x.r.src.vals
	keep := make(map[instance.Value]bool, len(vals))
	for v, a := range vals {
		if x.dropped[v/64]&(uint64(1)<<(v%64)) == 0 {
			keep[a] = true
		}
	}
	return keep
}
