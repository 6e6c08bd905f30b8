package hom

import (
	"context"
	"slices"

	"extremalcq/internal/compact"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/solve"
)

// Core computes the core of a pointed instance: the unique (up to
// isomorphism) minimal induced subinstance to which it is homomorphically
// equivalent, with the distinguished tuple fixed pointwise (Section 2.1).
//
// The algorithm repeatedly looks for a retraction that avoids some
// non-distinguished element and replaces the instance by the induced
// subinstance on the remaining values. A retraction only has to move
// the element's connected component, so each search runs on that
// component alone (Section 2.2).
func Core(p instance.Pointed) instance.Pointed {
	return CoreCtx(context.Background(), p)
}

// CoreCtx is Core under a solver context: results are memoized through
// the cache carried by ctx (see WithCache), and the retraction searches
// check ctx so cancellation stops work promptly.
func CoreCtx(ctx context.Context, p instance.Pointed) instance.Pointed {
	if c := cacheFrom(ctx); c != nil {
		k := p.Digest()
		if core, ok := c.GetCore(ctx, k); ok {
			return core
		}
		core := coreUncached(ctx, p)
		c.PutCore(ctx, k, core)
		return core
	}
	return coreUncached(ctx, p)
}

// coreUncached retracts p pass by pass. A pass compiles the current
// instance into itself once and tests the non-distinguished elements in
// order, each on its own connected component (see compact.Retractions);
// a test that succeeds drops the values its witness misses from that
// component, and the pass ends with one restriction to the values left.
// The first pass that drops nothing ends the loop: no retraction drops
// any element of what is left, so it is the core.
func coreUncached(ctx context.Context, p instance.Pointed) instance.Pointed {
	rec := obs.FromContext(ctx)
	sp := rec.StartSpan(obs.PhaseCore)
	defer sp.End()
	cur := p.Clone()
	var pass *compact.Retractions
	for {
		solve.Check(ctx)
		if onlyDistinguished(cur) {
			return cur
		}
		s := search{ctx: ctx, rec: rec, from: cur, to: cur, rep: compact.Build(ctx, cur, cur)}
		pass = s.rep.Retractions(pass)
		for v := range s.rep.NumVars() {
			if pass.Candidate(v) && s.retract(pass, v) {
				rec.Add(obs.CtrCoreRetractions, 1)
			}
		}
		keep := pass.Keep()
		if keep == nil {
			return cur
		}
		cur = instance.Pointed{I: cur.I.Restrict(keep), Tuple: cur.Tuple}
	}
}

// onlyDistinguished reports whether every element of p's domain is
// distinguished. A core keeps those, so such an instance is its own
// core, and a pass would compile it to test nothing.
func onlyDistinguished(p instance.Pointed) bool {
	n := 0
	for i, a := range p.Tuple {
		if p.I.InDom(a) && !slices.Contains(p.Tuple[:i], a) {
			n++
		}
	}
	return n == p.I.DomSize()
}

// retract runs one retraction test of a core pass, counted as one hom
// search on the backtracking path, which the test takes.
func (s *search) retract(pass *compact.Retractions, v int) bool {
	s.rec.Add(obs.CtrHomSearches, 1)
	sp := s.rec.StartSpan(obs.PhaseHomSearch)
	defer sp.End()
	ok := pass.Retract(s.ctx, v)
	s.count(compact.PathBacktrack)
	return ok
}

// IsCore reports whether p is its own core (up to the fixed tuple).
func IsCore(p instance.Pointed) bool {
	c := Core(p)
	return c.I.DomSize() == p.I.DomSize() && c.I.Size() == p.I.Size()
}
