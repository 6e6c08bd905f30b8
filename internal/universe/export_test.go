package universe

import (
	"context"

	"extremalcq/internal/cq"
	"extremalcq/internal/schema"
)

// NewCacheCapped returns an empty cache whose universes may retain at
// most maxFacts facts, so tests can drive a walk past the cap without
// enumerating thousands of candidates.
func NewCacheCapped(maxFacts int) *Cache { return newCache(maxFacts) }

// Compiled reports what c holds for a key: the entries compiled, the
// enumerated candidates they cover, and whether the universe is
// complete or marked too big.
func Compiled(c *Cache, sch *schema.Schema, k, maxAtoms, maxVars int) (entries, walked int, complete, tooBig bool) {
	u, ok := c.get(key{schema: sch.String(), arity: k, maxAtoms: maxAtoms, maxVars: maxVars})
	if !ok {
		return 0, 0, false, false
	}
	return len(u.entries), u.walked, u.complete, u.tooBig
}

// MaxRetained walks a key like ForEach under c (nil for no cache),
// accepting every candidate, and returns the most facts the walk held
// at any yield: those of its entries and of its isomorphism classes,
// counted from the instances themselves.
func MaxRetained(ctx context.Context, c *Cache, sch *schema.Schema, k, maxAtoms, maxVars int) (most, yields int) {
	w := walk{c: c, k: key{schema: sch.String(), arity: k, maxAtoms: maxAtoms, maxVars: maxVars}}
	if c != nil {
		w.resume(&universe{})
	}
	all := func(*cq.CQ) bool { return true }
	w.run(ctx, sch, k, maxAtoms, maxVars, all, func(*Entry) bool {
		held := map[*Entry]bool{}
		for _, e := range w.u.entries {
			held[e] = true
		}
		for _, es := range w.classes {
			for _, e := range es {
				held[e] = true
			}
		}
		facts := 0
		for e := range held {
			facts += e.Query.Example().Size()
			for _, m := range e.Frontier {
				facts += m.Size()
			}
		}
		most = max(most, facts)
		yields++
		return true
	})
	return most, yields
}
