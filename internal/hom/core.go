package hom

import (
	"context"

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
// subinstance on the remaining values.
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

func coreUncached(ctx context.Context, p instance.Pointed) instance.Pointed {
	rec := obs.FromContext(ctx)
	sp := rec.StartSpan(obs.PhaseCore)
	defer sp.End()
	cur := p.Clone()
	for {
		solve.Check(ctx)
		dropped := false
		distinguished := make(map[instance.Value]bool, len(cur.Tuple))
		for _, a := range cur.Tuple {
			distinguished[a] = true
		}
		for _, m := range cur.I.Dom() {
			if distinguished[m] {
				continue
			}
			keep := make(map[instance.Value]bool, cur.I.DomSize()-1)
			for _, v := range cur.I.Dom() {
				if v != m {
					keep[v] = true
				}
			}
			target := instance.Pointed{I: cur.I.Restrict(keep), Tuple: cur.Tuple}
			// The distinguished elements must still occur in the target if
			// they occurred before (retraction fixes them, so facts over
			// them must survive the restriction to be mappable). FindCtx
			// does not memoize, so these single-use intermediate instances
			// stay out of the bounded cache; the core itself is memoized.
			if h, ok := FindCtx(ctx, cur, target); ok {
				rec.Add(obs.CtrCoreRetractions, 1)
				cur = imageOf(cur, h)
				dropped = true
				break
			}
		}
		if !dropped {
			return cur
		}
	}
}

// imageOf restricts p to the image of h (induced subinstance).
func imageOf(p instance.Pointed, h Assignment) instance.Pointed {
	keep := make(map[instance.Value]bool, len(h))
	for _, w := range h {
		keep[w] = true
	}
	for _, a := range p.Tuple {
		keep[a] = true
	}
	return instance.Pointed{I: p.I.Restrict(keep), Tuple: p.Tuple}
}

// IsCore reports whether p is its own core (up to the fixed tuple).
func IsCore(p instance.Pointed) bool {
	c := Core(p)
	return c.I.DomSize() == p.I.DomSize() && c.I.Size() == p.I.Size()
}
