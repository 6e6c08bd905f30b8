package instance

import (
	"context"
	"fmt"
	"strings"

	"extremalcq/internal/obs"
	"extremalcq/internal/schema"
	"extremalcq/internal/solve"
)

// Pointed is a pointed instance (I, a): an instance together with a tuple
// of distinguished elements. The tuple values are typically, but not
// necessarily, in adom(I); a Pointed all of whose distinguished elements
// lie in adom(I) is a data example (Section 2.1).
type Pointed struct {
	I     *Instance
	Tuple []Value
}

// NewPointed builds a pointed instance.
func NewPointed(in *Instance, tuple ...Value) Pointed {
	return Pointed{I: in, Tuple: append([]Value(nil), tuple...)}
}

// Arity returns k, the number of distinguished elements.
func (p Pointed) Arity() int { return len(p.Tuple) }

// IsDataExample reports whether every distinguished element belongs to
// the active domain.
func (p Pointed) IsDataExample() bool {
	for _, a := range p.Tuple {
		if !p.I.InDom(a) {
			return false
		}
	}
	return true
}

// HasUNP reports the Unique Names Property: no repeated values in the
// distinguished tuple.
func (p Pointed) HasUNP() bool {
	seen := make(map[Value]bool, len(p.Tuple))
	for _, a := range p.Tuple {
		if seen[a] {
			return false
		}
		seen[a] = true
	}
	return true
}

// EqualityType returns, for each position i, the least position j <= i
// with Tuple[j] == Tuple[i]. Two pointed instances have the same equality
// type iff these slices are equal.
func (p Pointed) EqualityType() []int {
	et := make([]int, len(p.Tuple))
	for i := range p.Tuple {
		et[i] = i
		for j := 0; j < i; j++ {
			if p.Tuple[j] == p.Tuple[i] {
				et[i] = j
				break
			}
		}
	}
	return et
}

// SameEqualityType reports whether p and q agree on which answer
// positions coincide.
func (p Pointed) SameEqualityType(q Pointed) bool {
	a, b := p.EqualityType(), q.EqualityType()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Size returns the number of facts.
func (p Pointed) Size() int { return p.I.Size() }

// Clone deep-copies the pointed instance.
func (p Pointed) Clone() Pointed {
	return Pointed{I: p.I.Clone(), Tuple: append([]Value(nil), p.Tuple...)}
}

// Rename returns a copy with all values (including distinguished ones)
// prefixed.
func (p Pointed) Rename(prefix string) Pointed {
	t := make([]Value, len(p.Tuple))
	for i, a := range p.Tuple {
		t[i] = Value(prefix) + a
	}
	return Pointed{I: p.I.Rename(prefix), Tuple: t}
}

// MapValues applies h to the instance and the distinguished tuple.
func (p Pointed) MapValues(h map[Value]Value) Pointed {
	t := make([]Value, len(p.Tuple))
	for i, a := range p.Tuple {
		if b, ok := h[a]; ok {
			t[i] = b
		} else {
			t[i] = a
		}
	}
	return Pointed{I: p.I.MapValues(h), Tuple: t}
}

// Equal reports equality of facts and tuple (not isomorphism).
func (p Pointed) Equal(q Pointed) bool {
	if len(p.Tuple) != len(q.Tuple) {
		return false
	}
	for i := range p.Tuple {
		if p.Tuple[i] != q.Tuple[i] {
			return false
		}
	}
	return p.I.Equal(q.I)
}

// String renders "(facts; ⟨tuple⟩)".
func (p Pointed) String() string {
	ts := make([]string, len(p.Tuple))
	for i, a := range p.Tuple {
		ts[i] = string(a)
	}
	return "(" + p.I.String() + "; ⟨" + strings.Join(ts, ",") + "⟩)"
}

// SumSizes returns the combined size ||E|| of a set of examples.
func SumSizes(es []Pointed) int {
	n := 0
	for _, e := range es {
		n += e.Size()
	}
	return n
}

// ---------- Disjoint union (least upper bounds, Section 2.2) ----------

// DisjointUnion computes e1 ⊎ e2 for pointed instances with the UNP and
// the same arity and schema. Fresh isomorphic copies are taken so that
// the two instances share exactly the distinguished tuple (Prop 2.2).
func DisjointUnion(e1, e2 Pointed) (Pointed, error) {
	if !e1.I.Schema().Equal(e2.I.Schema()) {
		return Pointed{}, fmt.Errorf("instance: disjoint union over different schemas")
	}
	if e1.Arity() != e2.Arity() {
		return Pointed{}, fmt.Errorf("instance: disjoint union of arities %d and %d", e1.Arity(), e2.Arity())
	}
	if !e1.HasUNP() || !e2.HasUNP() {
		return Pointed{}, fmt.Errorf("instance: disjoint union requires the unique names property")
	}
	// Canonical distinguished names shared by both copies.
	tuple := make([]Value, e1.Arity())
	for i := range tuple {
		tuple[i] = Value(fmt.Sprintf("d%d", i))
	}
	out := New(e1.I.Schema())
	for idx, e := range []Pointed{e1, e2} {
		h := make(map[Value]Value)
		for i, a := range e.Tuple {
			h[a] = tuple[i]
		}
		prefix := Value(fmt.Sprintf("u%d_", idx))
		for v := range e.I.adom {
			if _, distinguished := h[v]; !distinguished {
				h[v] = prefix + v
			}
		}
		for _, f := range e.I.Facts() {
			out.addFactUnchecked(f.Map(h))
		}
	}
	return Pointed{I: out, Tuple: tuple}, nil
}

// DisjointUnionAll folds DisjointUnion over a non-empty list.
func DisjointUnionAll(es []Pointed) (Pointed, error) {
	if len(es) == 0 {
		return Pointed{}, fmt.Errorf("instance: disjoint union of empty list")
	}
	acc := es[0]
	var err error
	for _, e := range es[1:] {
		acc, err = DisjointUnion(acc, e)
		if err != nil {
			return Pointed{}, err
		}
	}
	return acc, nil
}

// ---------- Direct products (greatest lower bounds, Section 2.2) ----------

// PairValue encodes the product value ⟨a,b⟩. Encoding is injective on
// values built from user values (which may not contain ⟨ ⟩ or ,).
func PairValue(a, b Value) Value {
	return "⟨" + a + "," + b + "⟩"
}

// Product computes the direct product of two pointed instances
// (Section 2.2): facts R(⟨c1,d1⟩,...) for R(c̄) in I and R(d̄) in J, with
// distinguished tuple the pairing of the two tuples. The result is a
// pointed instance; it is a data example only under the conditions of
// Prop 2.7.
func Product(e1, e2 Pointed) (Pointed, error) {
	return ProductCtx(context.Background(), e1, e2)
}

// ProductCtx is Product under a solver context: results are memoized
// through the product cache carried by ctx (see WithProductCache), and
// the construction loop checks ctx so cancellation stops a large
// product mid-build.
func ProductCtx(ctx context.Context, e1, e2 Pointed) (Pointed, error) {
	if !e1.I.Schema().Equal(e2.I.Schema()) {
		return Pointed{}, fmt.Errorf("instance: product over different schemas")
	}
	if e1.Arity() != e2.Arity() {
		return Pointed{}, fmt.Errorf("instance: product of arities %d and %d", e1.Arity(), e2.Arity())
	}
	if c := productCacheFrom(ctx); c != nil {
		k := DigestPair(e1, e2)
		if prod, ok := c.GetProduct(ctx, k); ok {
			return prod, nil
		}
		prod, err := productUncached(ctx, e1, e2)
		if err == nil {
			c.PutProduct(ctx, k, prod)
		}
		return prod, err
	}
	return productUncached(ctx, e1, e2)
}

func productUncached(ctx context.Context, e1, e2 Pointed) (Pointed, error) {
	rec := obs.FromContext(ctx)
	sp := rec.StartSpan(obs.PhaseProduct)
	defer sp.End()
	out := New(e1.I.Schema())
	e1.I.buildByRel()
	e2.I.buildByRel()
	for rel, fs1 := range e1.I.byRel {
		fs2 := e2.I.byRel[rel]
		for _, f1 := range fs1 {
			solve.Check(ctx)
			for _, f2 := range fs2 {
				args := make([]Value, len(f1.Args))
				for i := range args {
					args[i] = PairValue(f1.Args[i], f2.Args[i])
				}
				out.addFactUnchecked(Fact{Rel: rel, Args: args})
			}
		}
	}
	tuple := make([]Value, e1.Arity())
	for i := range tuple {
		tuple[i] = PairValue(e1.Tuple[i], e2.Tuple[i])
	}
	rec.Add(obs.CtrProductFacts, int64(out.Size()))
	return Pointed{I: out, Tuple: tuple}, nil
}

// AllFactsInstance returns the pointed instance over a single value u
// containing all possible facts, with a k-tuple (u,...,u). This is, by
// convention, the direct product of the empty set of pointed instances
// (Section 2.2).
func AllFactsInstance(sch *schema.Schema, k int) Pointed {
	const u = Value("u")
	out := New(sch)
	for _, r := range sch.Relations() {
		args := make([]Value, r.Arity)
		for i := range args {
			args[i] = u
		}
		out.addFactUnchecked(Fact{Rel: r.Name, Args: args})
	}
	tuple := make([]Value, k)
	for i := range tuple {
		tuple[i] = u
	}
	return Pointed{I: out, Tuple: tuple}
}

// ProductAll computes the direct product of a list of pointed instances
// over the given schema and arity. The empty product is AllFactsInstance.
// For a singleton list the input itself is returned.
func ProductAll(sch *schema.Schema, k int, es []Pointed) (Pointed, error) {
	return ProductAllCtx(context.Background(), sch, k, es)
}

// ProductAllCtx is ProductAll under a solver context (see ProductCtx).
func ProductAllCtx(ctx context.Context, sch *schema.Schema, k int, es []Pointed) (Pointed, error) {
	if len(es) == 0 {
		return AllFactsInstance(sch, k), nil
	}
	acc := es[0]
	var err error
	for _, e := range es[1:] {
		acc, err = ProductCtx(ctx, acc, e)
		if err != nil {
			return Pointed{}, err
		}
	}
	return acc, nil
}
