// Package hom implements homomorphisms between pointed instances
// (Section 2.1), the homomorphism pre-order (Section 2.2), cores, and the
// arc-consistency procedure used in Proposition 4.7.
//
// A homomorphism h : (I,ā) → (J,b̄) maps adom(I) ∪ {ā} to adom(J) ∪ {b̄},
// preserves every fact, and maps each distinguished element to the
// corresponding distinguished element.
package hom

import (
	"context"

	"extremalcq/internal/compact"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
)

// Assignment maps source values to target values.
type Assignment map[instance.Value]instance.Value

// Exists reports whether a homomorphism from 'from' to 'to' exists.
func Exists(from, to instance.Pointed) bool {
	return ExistsCtx(context.Background(), from, to)
}

// ExistsCtx is Exists under a solver context, and the one memoized hom
// check: the verdict is looked up in, and on a miss stored to, the
// cache carried by ctx (see WithCache) under one key computed once, and
// cancellation unwinds the search (see package solve).
func ExistsCtx(ctx context.Context, from, to instance.Pointed) bool {
	c := cacheFrom(ctx)
	if c == nil {
		return SearchCtx(ctx, from, to)
	}
	k := instance.DigestPair(from, to)
	if exists, ok := c.GetHom(ctx, k); ok {
		return exists
	}
	_, exists := find(ctx, from, to, false)
	c.PutHom(ctx, k, exists)
	return exists
}

// SearchCtx is ExistsCtx without the memo: it always searches and
// stores no verdict. It is for bulk one-off checks, such as the order
// of a compiled candidate universe, whose verdicts would only flush
// the memo's hom class (and, under memo spill, fill the store).
func SearchCtx(ctx context.Context, from, to instance.Pointed) bool {
	_, ok := find(ctx, from, to, false)
	return ok
}

// Find returns a homomorphism from 'from' to 'to' if one exists. The
// assignment covers adom(from) and all distinguished elements.
func Find(from, to instance.Pointed) (Assignment, bool) {
	return FindCtx(context.Background(), from, to)
}

// FindCtx is Find under a solver context. It always searches: the
// cache keeps verdicts, not witnesses. The backtracking search checks
// ctx at every node, so deadlines and cancellation stop work promptly
// (the unwind is a solve sentinel; see package solve).
func FindCtx(ctx context.Context, from, to instance.Pointed) (Assignment, bool) {
	return find(ctx, from, to, true)
}

// find is the one hom search behind ExistsCtx and FindCtx: it reports
// whether a homomorphism exists and, when witness is set, returns the
// one found. Without a witness it keeps nothing, so an exists check
// allocates no more than compact.Build does.
func find(ctx context.Context, from, to instance.Pointed, witness bool) (Assignment, bool) {
	rec := obs.FromContext(ctx)
	rec.Add(obs.CtrHomSearches, 1)
	sp := rec.StartSpan(obs.PhaseHomSearch)
	defer sp.End()
	s, ok := newSearch(ctx, from, to)
	if !ok {
		return nil, false
	}
	if !witness {
		return nil, s.find(nil)
	}
	sol := make([]uint32, s.rep.NumVars())
	if !s.find(sol) {
		return nil, false
	}
	return s.assignment(sol), true
}

// FindAll enumerates homomorphisms from 'from' to 'to', invoking yield
// for each (with a copy of the assignment) until yield returns false or
// the space is exhausted.
func FindAll(from, to instance.Pointed, yield func(Assignment) bool) {
	FindAllCtx(context.Background(), from, to, yield)
}

// FindAllCtx is FindAll under a solver context: each homomorphism is
// yielded as soon as the search reaches it, and the enumeration checks
// ctx at every node, so deadlines and cancellation stop it between
// answers (the unwind is a solve sentinel; see package solve).
func FindAllCtx(ctx context.Context, from, to instance.Pointed, yield func(Assignment) bool) {
	rec := obs.FromContext(ctx)
	rec.Add(obs.CtrHomSearches, 1)
	sp := rec.StartSpan(obs.PhaseHomSearch)
	defer sp.End()
	s, ok := newSearch(ctx, from, to)
	if !ok {
		return
	}
	s.findAll(func(sol []uint32) bool { return yield(s.assignment(sol)) })
}

// Equivalent reports homomorphic equivalence: from → to and to → from.
func Equivalent(a, b instance.Pointed) bool {
	return EquivalentCtx(context.Background(), a, b)
}

// EquivalentCtx is Equivalent under a solver context.
func EquivalentCtx(ctx context.Context, a, b instance.Pointed) bool {
	return ExistsCtx(ctx, a, b) && ExistsCtx(ctx, b, a)
}

// StrictlyBelow reports a → b and b ↛ a (a is strictly below b in the
// homomorphism pre-order).
func StrictlyBelow(a, b instance.Pointed) bool {
	return Exists(a, b) && !Exists(b, a)
}

// Incomparable reports that neither maps to the other.
func Incomparable(a, b instance.Pointed) bool {
	return !Exists(a, b) && !Exists(b, a)
}

// ExistsToAny reports whether from maps into at least one element of ts.
func ExistsToAny(from instance.Pointed, ts []instance.Pointed) bool {
	return ExistsToAnyCtx(context.Background(), from, ts)
}

// ExistsToAnyCtx is ExistsToAny under a solver context.
func ExistsToAnyCtx(ctx context.Context, from instance.Pointed, ts []instance.Pointed) bool {
	for _, t := range ts {
		if ExistsCtx(ctx, from, t) {
			return true
		}
	}
	return false
}

// ExistsToAll reports whether from maps into every element of ts.
func ExistsToAll(from instance.Pointed, ts []instance.Pointed) bool {
	return ExistsToAllCtx(context.Background(), from, ts)
}

// ExistsToAllCtx is ExistsToAll under a solver context.
func ExistsToAllCtx(ctx context.Context, from instance.Pointed, ts []instance.Pointed) bool {
	for _, t := range ts {
		if !ExistsCtx(ctx, from, t) {
			return false
		}
	}
	return true
}

// search is one validated homomorphism problem: the inputs and the
// compact form the search runs on.
type search struct {
	ctx      context.Context
	rec      *obs.Recorder // job trace recorder (nil when untraced)
	from, to instance.Pointed
	rep      *compact.Rep
}

// newSearch checks that schemas and arities match, that the
// distinguished tuple is consistent (h is a function, so repeated
// source values need equal targets), and that every distinguished
// element inside adom(from) has its image in adom(to), then builds the
// compact form. ok=false means no homomorphism can exist. The checks
// scan the tuples, which are short, and build no map.
func newSearch(ctx context.Context, from, to instance.Pointed) (search, bool) {
	if !from.I.Schema().Equal(to.I.Schema()) || from.Arity() != to.Arity() {
		return search{}, false
	}
	for i, a := range from.Tuple {
		b := to.Tuple[i]
		if from.I.InDom(a) && !to.I.InDom(b) {
			// A distinguished element occurring in a fact must map to a
			// target value that also occurs in a fact.
			return search{}, false
		}
		for k := range i {
			if from.Tuple[k] == a && to.Tuple[k] != b {
				return search{}, false
			}
		}
	}
	return search{ctx: ctx, rec: obs.FromContext(ctx), from: from, to: to,
		rep: compact.Build(ctx, from, to)}, true
}

// ArcConsistent runs the arc-consistency procedure from 'from' to 'to'
// (with distinguished elements seeded position-wise) and reports whether
// it terminates with all domains non-empty. For c-acyclic 'from' this is
// exact for homomorphism existence; in general it is a necessary
// condition. It also decides the implication test of Prop 4.7: arc
// consistency from e' to e succeeds iff every c-acyclic t with t → e'
// satisfies t → e.
func ArcConsistent(from, to instance.Pointed) bool {
	ctx := context.Background()
	s, ok := newSearch(ctx, from, to)
	if !ok {
		return false
	}
	return s.rep.ArcConsistent(ctx)
}
