// Package fitting implements the fitting problems for conjunctive
// queries (Section 3 of the paper): verification, existence and
// construction for arbitrary fittings (Thm 3.1–3.3), most-specific
// fittings (Prop 3.5, Thm 3.7), weakly most-general fittings (Prop 3.11,
// Thm 3.12/3.13), bases of most-general fittings (Prop 3.29, Thm 3.31)
// and unique fittings (Prop 3.34, Thm 3.35), together with the CQ
// definability special case (Remark 3.1).
package fitting

import (
	"context"
	"fmt"

	"extremalcq/internal/cq"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
	"extremalcq/internal/universe"
)

// Examples is a collection of labeled examples E = (E+, E-). All
// examples must be data examples over the same schema and arity.
type Examples struct {
	Schema *schema.Schema
	Arity  int
	Pos    []instance.Pointed
	Neg    []instance.Pointed
}

// NewExamples validates and builds a collection of labeled examples.
func NewExamples(sch *schema.Schema, k int, pos, neg []instance.Pointed) (Examples, error) {
	e := Examples{Schema: sch, Arity: k, Pos: pos, Neg: neg}
	for _, lst := range [][]instance.Pointed{pos, neg} {
		for _, x := range lst {
			if !x.I.Schema().Equal(sch) {
				return Examples{}, fmt.Errorf("fitting: example %v has schema %v, want %v", x, x.I.Schema(), sch)
			}
			if x.Arity() != k {
				return Examples{}, fmt.Errorf("fitting: example %v has arity %d, want %d", x, x.Arity(), k)
			}
			if !x.IsDataExample() {
				return Examples{}, fmt.Errorf("fitting: %v is not a data example (distinguished element outside adom)", x)
			}
		}
	}
	return e, nil
}

// MustExamples panics on error; for fixtures and tests.
func MustExamples(sch *schema.Schema, k int, pos, neg []instance.Pointed) Examples {
	e, err := NewExamples(sch, k, pos, neg)
	if err != nil {
		panic(err)
	}
	return e
}

// Size returns ||E||, the combined number of facts.
func (e Examples) Size() int {
	return instance.SumSizes(e.Pos) + instance.SumSizes(e.Neg)
}

// compatible reports whether q ranges over the same schema and arity.
func (e Examples) compatible(q *cq.CQ) bool {
	return q.Schema().Equal(e.Schema) && q.Arity() == e.Arity
}

// ---------------------------------------------------------------------
// Arbitrary fittings (Section 3.1)
// ---------------------------------------------------------------------

// Verify decides the verification problem for fitting CQs (Theorem 3.1):
// does q fit E, i.e. is every positive example a positive example for q
// and every negative example a negative one?
func Verify(q *cq.CQ, e Examples) bool {
	return VerifyCtx(context.Background(), q, e)
}

// VerifyCtx is Verify under a solver context: the homomorphism checks
// are memoized through the caches carried by ctx (see hom.WithCache)
// and stop promptly when ctx is canceled.
func VerifyCtx(ctx context.Context, q *cq.CQ, e Examples) bool {
	return verify(ctx, nil, -1, q, e)
}

// verify is VerifyCtx with each check decided through known, q being
// node (see universe.Entry.Node). Example i of known is e.Pos[i] for
// i < len(e.Pos), and e.Neg[i-len(e.Pos)] after.
func verify(ctx context.Context, known *universe.Verdicts, node int, q *cq.CQ, e Examples) bool {
	if !e.compatible(q) {
		return false
	}
	for i, p := range e.Pos {
		if !known.Decide(ctx, node, i, q.Example(), p) {
			return false
		}
	}
	for i, n := range e.Neg {
		if known.Decide(ctx, node, len(e.Pos)+i, q.Example(), n) {
			return false
		}
	}
	return true
}

// PositiveProduct returns the direct product of the positive examples
// (the empty product is the single-element all-facts instance).
func (e Examples) PositiveProduct() (instance.Pointed, error) {
	return instance.ProductAll(e.Schema, e.Arity, e.Pos)
}

// PositiveProductCtx is PositiveProduct under a solver context (see
// instance.ProductCtx).
func (e Examples) PositiveProductCtx(ctx context.Context) (instance.Pointed, error) {
	return instance.ProductAllCtx(ctx, e.Schema, e.Arity, e.Pos)
}

// Exists decides the existence problem for fitting CQs (Theorems
// 3.2/3.3): a fitting CQ exists iff the direct product of the positive
// examples is a data example and maps into no negative example.
func Exists(e Examples) (bool, error) {
	_, ok, err := Construct(e)
	return ok, err
}

// ExistsCtx is Exists under a solver context.
func ExistsCtx(ctx context.Context, e Examples) (bool, error) {
	_, ok, err := ConstructCtx(ctx, e)
	return ok, err
}

// Construct returns a fitting CQ when one exists (the canonical CQ of
// the direct product of the positive examples, per Theorem 3.3), along
// with whether one exists.
func Construct(e Examples) (*cq.CQ, bool, error) {
	return ConstructCtx(context.Background(), e)
}

// ConstructCtx is Construct under a solver context: the product and the
// homomorphism checks are memoized through the caches carried by ctx
// and interrupted when ctx is canceled.
func ConstructCtx(ctx context.Context, e Examples) (*cq.CQ, bool, error) {
	prod, err := e.PositiveProductCtx(ctx)
	if err != nil {
		return nil, false, err
	}
	if !prod.IsDataExample() {
		// No CQ maps into all positive examples (Prop 2.7).
		return nil, false, nil
	}
	for _, n := range e.Neg {
		if hom.ExistsCtx(ctx, prod, n) {
			return nil, false, nil
		}
	}
	q, err := cq.FromExample(prod)
	if err != nil {
		return nil, false, err
	}
	return q, true, nil
}

// ---------------------------------------------------------------------
// Most-specific fittings (Section 3.2)
// ---------------------------------------------------------------------

// VerifyMostSpecific decides the verification problem for most-specific
// fitting CQs (Prop 3.5, Thm 3.7): q fits E and is equivalent to the
// canonical CQ of the product of the positive examples. The weak and
// strong notions coincide for CQs.
func VerifyMostSpecific(q *cq.CQ, e Examples) bool {
	return VerifyMostSpecificCtx(context.Background(), q, e)
}

// VerifyMostSpecificCtx is VerifyMostSpecific under a solver context.
func VerifyMostSpecificCtx(ctx context.Context, q *cq.CQ, e Examples) bool {
	if !VerifyCtx(ctx, q, e) {
		return false
	}
	prod, err := e.PositiveProductCtx(ctx)
	if err != nil {
		return false
	}
	// q fits, so prod is a data example (Theorem 3.3) and equivalence is
	// two homomorphism checks.
	return hom.EquivalentCtx(ctx, q.Example(), prod)
}

// ExistsMostSpecific decides existence of a most-specific fitting CQ,
// which coincides with existence of any fitting CQ (Prop 3.5).
func ExistsMostSpecific(e Examples) (bool, error) { return Exists(e) }

// ConstructMostSpecific returns the most-specific fitting CQ when a
// fitting exists (Prop 3.5: the canonical CQ of the positive product).
func ConstructMostSpecific(e Examples) (*cq.CQ, bool, error) { return Construct(e) }

// ConstructMostSpecificCtx is ConstructMostSpecific under a solver
// context.
func ConstructMostSpecificCtx(ctx context.Context, e Examples) (*cq.CQ, bool, error) {
	return ConstructCtx(ctx, e)
}

// ---------------------------------------------------------------------
// CQ definability (Remark 3.1)
// ---------------------------------------------------------------------

// DefinabilityExamples builds the labeled-example collection of the CQ
// definability problem: given an instance I and a k-ary relation S over
// adom(I), the positives are (I, a) for a in S and the negatives are
// (I, a) for every other k-tuple over adom(I). k must be at least 1.
func DefinabilityExamples(in *instance.Instance, S [][]instance.Value, k int) (Examples, error) {
	if k < 1 {
		return Examples{}, fmt.Errorf("fitting: CQ definability needs arity >= 1")
	}
	inS := make(map[string]bool)
	for _, tup := range S {
		if len(tup) != k {
			return Examples{}, fmt.Errorf("fitting: tuple %v has arity %d, want %d", tup, len(tup), k)
		}
		inS[tupleKey(tup)] = true
	}
	var pos, neg []instance.Pointed
	dom := in.Dom()
	tup := make([]instance.Value, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			p := instance.NewPointed(in, tup...)
			if inS[tupleKey(tup)] {
				pos = append(pos, p)
			} else {
				neg = append(neg, p)
			}
			return
		}
		for _, v := range dom {
			tup[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	if len(pos) != len(S) {
		return Examples{}, fmt.Errorf("fitting: S contains tuples outside adom(I)^%d or duplicates", k)
	}
	return NewExamples(in.Schema(), k, pos, neg)
}

func tupleKey(tup []instance.Value) string {
	out := ""
	for _, v := range tup {
		out += string(v) + "\x1f"
	}
	return out
}
