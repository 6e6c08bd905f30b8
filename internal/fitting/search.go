package fitting

import (
	"context"

	"extremalcq/internal/cq"
	"extremalcq/internal/enum"
	"extremalcq/internal/hom"
	"extremalcq/internal/obs"
	"extremalcq/internal/solve"
	"extremalcq/internal/universe"
)

// SearchOpts bounds the candidate space of the synthesis searches. The
// paper's automata-based decision procedure for weakly most-general
// existence (Theorem 3.13) is replaced by bounded enumeration with the
// exact verifier as a filter (see README, "Substitutions for the
// paper's automata", item 2): answers of the form "found" are exact;
// "not found" is definitive only within the bounds.
type SearchOpts struct {
	MaxAtoms int
	MaxVars  int
}

// DefaultSearch returns bounds that cover all of the paper's worked
// examples. It is a function rather than a package-level variable
// (cqlint:noglobals): a shared mutable default would couple every
// engine in the process.
func DefaultSearch() SearchOpts {
	return SearchOpts{MaxAtoms: 3, MaxVars: 4}
}

// SearchWeaklyMostGeneral looks for a weakly most-general fitting CQ for
// E among (i) the core of the canonical fitting (the positive product)
// and (ii) all candidate CQs within the search bounds. The returned
// query, if any, is verified exactly by VerifyWeaklyMostGeneral.
func SearchWeaklyMostGeneral(e Examples, opts SearchOpts) (*cq.CQ, bool, error) {
	return SearchWeaklyMostGeneralCtx(context.Background(), e, opts)
}

// SearchWeaklyMostGeneralCtx is SearchWeaklyMostGeneral under a solver
// context: every candidate check runs memoized and interruptible.
func SearchWeaklyMostGeneralCtx(ctx context.Context, e Examples, opts SearchOpts) (*cq.CQ, bool, error) {
	var found *cq.CQ
	err := forEachWMG(ctx, e, opts, func(q *cq.CQ) bool {
		found = q
		return false
	})
	return found, found != nil, err
}

// ForEachWeaklyMostGeneral streams the weakly most-general fitting CQs
// within the bounds: yield is invoked for each verified answer as soon
// as it is found, deduplicated up to equivalence incrementally, until
// yield returns false or the candidate space is exhausted.
func ForEachWeaklyMostGeneral(e Examples, opts SearchOpts, yield func(*cq.CQ) bool) error {
	return ForEachWeaklyMostGeneralCtx(context.Background(), e, opts, yield)
}

// ForEachWeaklyMostGeneralCtx is ForEachWeaklyMostGeneral under a
// solver context: candidate checks run memoized, ctx is checked per
// candidate so cancellation cuts the enumeration between answers, and
// the dedup runs through an incremental core-fingerprint index
// (internal/enum) rather than a scan over all prior answers.
func ForEachWeaklyMostGeneralCtx(ctx context.Context, e Examples, opts SearchOpts, yield func(*cq.CQ) bool) error {
	seen := enum.NewIndex(nil)
	return forEachWMG(ctx, e, opts, func(q *cq.CQ) bool {
		// forEachWMG yields cores, so the index can key them directly.
		if seen.SeenCore(ctx, q.Example()) {
			return true
		}
		return yield(q)
	})
}

// AllWeaklyMostGeneral collects all weakly most-general fitting CQs
// within the bounds, deduplicated up to equivalence.
func AllWeaklyMostGeneral(e Examples, opts SearchOpts) ([]*cq.CQ, error) {
	return AllWeaklyMostGeneralCtx(context.Background(), e, opts)
}

// AllWeaklyMostGeneralCtx is AllWeaklyMostGeneral under a solver
// context.
func AllWeaklyMostGeneralCtx(ctx context.Context, e Examples, opts SearchOpts) ([]*cq.CQ, error) {
	var out []*cq.CQ
	err := ForEachWeaklyMostGeneralCtx(ctx, e, opts, func(q *cq.CQ) bool {
		out = append(out, q)
		return true
	})
	return out, err
}

// forEachWMG enumerates verified weakly most-general fitting CQs,
// possibly repeating equivalent answers (ForEachWeaklyMostGeneralCtx
// adds the dedup). The candidate stream is: the core of the positive
// product first (this decides the unique-fitting case immediately),
// then the bounded candidates of internal/universe, whose cores and
// frontiers do not depend on E: on an engine, one compiled c-acyclic
// core per isomorphism class with its frontier already built, so each
// costs only the two checks that depend on E — fit, and the frontier
// members into the negatives. ctx is checked per candidate, so
// cancellation cuts the enumeration short. Only the product candidate
// can fail the Prop 3.11 test with an error: a product of
// repeated-tuple examples can be non-UNP, while enumerated candidates
// have distinct-value tuples. That error is a property of the product
// alone, so it is recorded and skipped, preserving any answers the
// bounded enumeration still finds.
func forEachWMG(ctx context.Context, e Examples, opts SearchOpts, yield func(*cq.CQ) bool) error {
	rec := obs.FromContext(ctx)
	sp := rec.StartSpan(obs.PhaseEnum)
	defer sp.End()
	var firstErr error
	if prod, err := e.PositiveProductCtx(ctx); err == nil && prod.IsDataExample() {
		solve.Check(ctx)
		rec.Add(obs.CtrEnumCandidates, 1)
		core := hom.CoreCtx(ctx, prod)
		if q, err := cq.FromExample(core); err == nil && VerifyCtx(ctx, q, e) {
			ok, err := verifyWeaklyMostGeneral(ctx, core, e)
			if err != nil {
				firstErr = err
			} else if ok && !yield(q) {
				return nil
			}
		}
	}
	known := universe.NewVerdicts(len(e.Pos) + len(e.Neg))
	fits := func(q *cq.CQ, node int) bool {
		rec.Add(obs.CtrEnumCandidates, 1)
		return verify(ctx, known, node, q, e)
	}
	universe.ForEach(ctx, e.Schema, e.Arity, opts.MaxAtoms, opts.MaxVars, known, fits, func(c *universe.Entry) bool {
		return !frontierIntoNegatives(ctx, known, c, e) || yield(c.Query)
	})
	return firstErr
}

// SearchBasis looks for a (finite) basis of most-general fitting CQs for
// E: it collects the weakly most-general fitting CQs within the bounds
// (every member of a minimal basis is weakly most-general, and every
// weakly most-general fitting belongs to every basis up to equivalence)
// and checks, exactly via VerifyBasis, whether they cover all fitting
// CQs. A returned basis is exact; a negative answer means no basis whose
// members fit within the bounds exists.
func SearchBasis(e Examples, opts SearchOpts) ([]*cq.CQ, bool, error) {
	return SearchBasisCtx(context.Background(), e, opts)
}

// SearchBasisCtx is SearchBasis under a solver context.
func SearchBasisCtx(ctx context.Context, e Examples, opts SearchOpts) ([]*cq.CQ, bool, error) {
	cands, err := AllWeaklyMostGeneralCtx(ctx, e, opts)
	if err != nil {
		return nil, false, err
	}
	if len(cands) == 0 {
		return nil, false, nil
	}
	ok, err := verifyBasis(ctx, cands, e)
	if err != nil || !ok {
		return nil, false, err
	}
	return cands, true, nil
}

// SearchStronglyMostGeneral looks for a strongly most-general fitting CQ
// (a basis of size one).
func SearchStronglyMostGeneral(e Examples, opts SearchOpts) (*cq.CQ, bool, error) {
	basis, ok, err := SearchBasis(e, opts)
	if err != nil || !ok {
		return nil, false, err
	}
	if len(basis) != 1 {
		return nil, false, nil
	}
	return basis[0], true, nil
}
