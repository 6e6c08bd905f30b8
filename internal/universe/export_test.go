package universe

import (
	"context"

	"extremalcq/internal/cq"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
)

// NewCacheCapped returns an empty cache whose universes may retain at
// most maxFacts facts, so tests can drive a walk past the cap without
// enumerating thousands of candidates.
func NewCacheCapped(maxFacts int) *Cache { return newCache(maxFacts) }

func keyOf(sch *schema.Schema, k, maxAtoms, maxVars int) key {
	return key{schema: sch.String(), arity: k, maxAtoms: maxAtoms, maxVars: maxVars}
}

// Compiled reports what c holds for a key: the entries compiled, the
// enumerated candidates they cover, and whether the universe is
// complete or marked too big.
func Compiled(c *Cache, sch *schema.Schema, k, maxAtoms, maxVars int) (entries, walked int, complete, tooBig bool) {
	u, ok := c.get(keyOf(sch, k, maxAtoms, maxVars))
	if !ok {
		return 0, 0, false, false
	}
	return len(u.entries), u.walked, u.complete, u.tooBig
}

// Nodes returns the instances of the nodes of the universe c holds for
// a key, indexed by node, and how many of them its order covers: all
// of them once it is built, none once its build gave up.
func Nodes(c *Cache, sch *schema.Schema, k, maxAtoms, maxVars int) (nodes []instance.Pointed, inserted int) {
	u, _ := c.get(keyOf(sch, k, maxAtoms, maxVars))
	if u == nil {
		return nil, 0
	}
	for _, e := range u.entries {
		if e.Node() != len(nodes) || e.MemberNode(0) != len(nodes)+1 {
			panic("entry node ids are not consecutive")
		}
		nodes = append(nodes, e.Query.Example())
		nodes = append(nodes, e.Frontier...)
	}
	if u.order != nil {
		inserted = u.order.n
	}
	return nodes, inserted
}

// Relation returns the order of the universe c holds for a key as its
// two matrices: up[i][j] when node i maps to node j, down[i][j] when
// node j maps to node i. Both are nil until the order is built.
func Relation(c *Cache, sch *schema.Schema, k, maxAtoms, maxVars int) (up, down [][]bool) {
	u, _ := c.get(keyOf(sch, k, maxAtoms, maxVars))
	if u == nil || u.order == nil || !u.settled() {
		return nil, nil
	}
	o := u.order
	for i := range u.nodes {
		up, down = append(up, make([]bool, u.nodes)), append(down, make([]bool, u.nodes))
		for j := range u.nodes {
			up[i][j], down[i][j] = has(o.row(o.up, i), j), has(o.row(o.down, i), j)
		}
	}
	return up, down
}

// Rebuild builds the order of the complete universe c holds for a key
// again, from no node, under ctx, and discards it.
func Rebuild(ctx context.Context, c *Cache, sch *schema.Schema, k, maxAtoms, maxVars int) {
	u, _ := c.get(keyOf(sch, k, maxAtoms, maxVars))
	v := *u
	v.order, v.unordered = nil, false
	ordered(ctx, &v)
}

// MaxOrderNodes is the node cap of the order's build.
const MaxOrderNodes = maxOrderNodes

// OrdersCopies reports whether the order of a universe of n entries,
// each q with no frontier, gets built under ctx.
func OrdersCopies(ctx context.Context, q *cq.CQ, n int) bool {
	u := &universe{entries: make([]*Entry, n), nodes: n, complete: true}
	for i := range u.entries {
		u.entries[i] = &Entry{Query: q}
	}
	return ordered(ctx, u).order != nil
}

// Bound returns verdicts about the given number of examples, bound to
// the order of the universe c holds for a key.
func Bound(ctx context.Context, c *Cache, sch *schema.Schema, k, maxAtoms, maxVars, examples int) *Verdicts {
	u, _ := c.get(keyOf(sch, k, maxAtoms, maxVars))
	v := NewVerdicts(examples)
	v.bind(ctx, u.order)
	return v
}

// MaxRetained walks a key like ForEach under c (nil for no cache),
// accepting every candidate, and returns the most facts the walk held
// at any yield: those of its entries and of its isomorphism classes,
// counted from the instances themselves.
func MaxRetained(ctx context.Context, c *Cache, sch *schema.Schema, k, maxAtoms, maxVars int) (most, yields int) {
	w := walk{c: c, k: keyOf(sch, k, maxAtoms, maxVars)}
	if c != nil {
		w.resume(&universe{})
	}
	all := func(*cq.CQ, int) bool { return true }
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
