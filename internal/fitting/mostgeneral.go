package fitting

import (
	"context"
	"errors"
	"fmt"

	"extremalcq/internal/cq"
	"extremalcq/internal/duality"
	"extremalcq/internal/frontier"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/universe"
)

// ErrUnsupported marks inputs outside the implemented exact fragment
// (non-UNP queries for frontier-based checks, non-binary schemas for
// duality-based checks).
var ErrUnsupported = errors.New("fitting: input outside the implemented exact fragment")

// VerifyWeaklyMostGeneral decides the verification problem for weakly
// most-general fitting CQs (Prop 3.11, Thm 3.12), exactly: q is weakly
// most-general fitting for E iff q fits E, the core of q is c-acyclic,
// and every member of its frontier maps homomorphically into a negative
// example.
//
// The frontier construction requires the unique names property; for
// repeated answer variables ErrUnsupported is returned (the paper's
// equality-type refinement lives in Appendix A, which is not part of the
// provided text).
func VerifyWeaklyMostGeneral(q *cq.CQ, e Examples) (bool, error) {
	return VerifyWeaklyMostGeneralCtx(context.Background(), q, e)
}

// VerifyWeaklyMostGeneralCtx is VerifyWeaklyMostGeneral under a solver
// context.
func VerifyWeaklyMostGeneralCtx(ctx context.Context, q *cq.CQ, e Examples) (bool, error) {
	if !VerifyCtx(ctx, q, e) {
		return false, nil
	}
	return verifyWeaklyMostGeneral(ctx, hom.CoreCtx(ctx, q.Example()), e)
}

// verifyWeaklyMostGeneral is the Prop 3.11 test for a q its caller has
// already shown to fit E, given core, the core of q's canonical
// example: core is c-acyclic and every member of its frontier maps
// into a negative example.
func verifyWeaklyMostGeneral(ctx context.Context, core instance.Pointed, e Examples) (bool, error) {
	if !instance.CAcyclic(core) {
		// No frontier exists (Thm 2.12), so by Prop 3.11 q cannot be
		// weakly most-general.
		return false, nil
	}
	members, err := frontier.ForCoreCtx(ctx, core)
	if errors.Is(err, frontier.ErrNoUNP) {
		return false, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	if err != nil {
		return false, err
	}
	return frontierIntoNegatives(ctx, nil, &universe.Entry{Frontier: members}, e), nil
}

// frontierIntoNegatives is the example-dependent half of the Prop 3.11
// test: given the entry c of a fitting q's c-acyclic core, which holds
// that core's frontier, q is weakly most-general iff every member of
// the frontier maps into some negative example. Each check is decided
// through known (see verify); the members of an entry of no universe,
// as verifyWeaklyMostGeneral makes, are searched.
func frontierIntoNegatives(ctx context.Context, known *universe.Verdicts, c *universe.Entry, e Examples) bool {
	for i, m := range c.Frontier {
		into := false
		for j, n := range e.Neg {
			if into = known.Decide(ctx, c.MemberNode(i), len(e.Pos)+j, m, n); into {
				break
			}
		}
		if !into {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Unique fittings (Section 3.4)
// ---------------------------------------------------------------------

// VerifyUnique decides the verification problem for unique fitting CQs
// (Prop 3.34): q is a unique fitting iff it is a most-specific and a
// weakly most-general fitting.
func VerifyUnique(q *cq.CQ, e Examples) (bool, error) {
	return VerifyUniqueCtx(context.Background(), q, e)
}

// VerifyUniqueCtx is VerifyUnique under a solver context.
func VerifyUniqueCtx(ctx context.Context, q *cq.CQ, e Examples) (bool, error) {
	if !VerifyMostSpecificCtx(ctx, q, e) {
		return false, nil
	}
	return verifyWeaklyMostGeneral(ctx, hom.CoreCtx(ctx, q.Example()), e)
}

// ExistsUnique decides, exactly, the existence problem for unique
// fitting CQs (Thm 3.35): a unique fitting exists iff the canonical CQ
// of the product of the positive examples is weakly most-general
// fitting. Returns the unique fitting when it exists.
func ExistsUnique(e Examples) (*cq.CQ, bool, error) {
	return ExistsUniqueCtx(context.Background(), e)
}

// ExistsUniqueCtx is ExistsUnique under a solver context. The product
// is cored once: the Prop 3.11 test and its frontier reuse that core.
func ExistsUniqueCtx(ctx context.Context, e Examples) (*cq.CQ, bool, error) {
	q, ok, err := ConstructCtx(ctx, e)
	if err != nil || !ok {
		return nil, false, err
	}
	isWMG, err := verifyWeaklyMostGeneral(ctx, hom.CoreCtx(ctx, q.Example()), e)
	if err != nil {
		return nil, false, err
	}
	if !isWMG {
		return nil, false, nil
	}
	return q, true, nil
}

// ---------------------------------------------------------------------
// Bases of most-general fittings (Section 3.3)
// ---------------------------------------------------------------------

// VerifyBasis decides the verification problem for bases of most-general
// fitting CQs (Thm 3.31), exactly, via relativized homomorphism
// dualities: {q_1..q_n} is a basis iff each q_i fits E and
// ({e_q1..e_qn}, E-) is a homomorphism duality relative to the product p
// of the positive examples; the latter holds iff for every member d of a
// duality set for the (c-acyclic cores of the) q_i, d × p maps into some
// negative example.
//
// Requires a binary schema for the dual construction.
func VerifyBasis(qs []*cq.CQ, e Examples) (bool, error) {
	return verifyBasis(context.Background(), qs, e)
}

// VerifyBasisCtx is VerifyBasis under a solver context.
func VerifyBasisCtx(ctx context.Context, qs []*cq.CQ, e Examples) (bool, error) {
	return verifyBasis(ctx, qs, e)
}

func verifyBasis(ctx context.Context, qs []*cq.CQ, e Examples) (bool, error) {
	if len(qs) == 0 {
		return false, nil
	}
	for _, q := range qs {
		if !VerifyCtx(ctx, q, e) {
			return false, nil
		}
	}
	// Keep containment-maximal queries: dropping a query that is
	// contained in another preserves the basis property.
	var exs []instance.Pointed
	for _, q := range qs {
		exs = append(exs, q.Example())
	}
	exs = minimizeHom(ctx, exs)
	// Each remaining member must be weakly most-general, hence have a
	// c-acyclic core.
	var cores []instance.Pointed
	for _, ex := range exs {
		c := hom.CoreCtx(ctx, ex)
		if !instance.CAcyclic(c) {
			return false, nil
		}
		cores = append(cores, c)
	}
	D, err := duality.DualOfSetCtx(ctx, cores)
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	p, err := e.PositiveProductCtx(ctx)
	if err != nil {
		return false, err
	}
	for _, d := range D {
		dp, err := instance.ProductCtx(ctx, d, p)
		if err != nil {
			return false, err
		}
		if !hom.ExistsToAnyCtx(ctx, dp, e.Neg) {
			return false, nil
		}
	}
	return true, nil
}

// minimizeHom keeps hom-minimal canonical examples (the containment-
// maximal queries).
func minimizeHom(ctx context.Context, exs []instance.Pointed) []instance.Pointed {
	var out []instance.Pointed
	for i, f := range exs {
		drop := false
		for j, g := range exs {
			if i == j {
				continue
			}
			if hom.ExistsCtx(ctx, g, f) {
				if !hom.ExistsCtx(ctx, f, g) || j < i {
					drop = true
					break
				}
			}
		}
		if !drop {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return exs[:1]
	}
	return out
}
