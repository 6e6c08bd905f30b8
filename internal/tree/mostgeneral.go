package tree

import (
	"context"
	"fmt"

	"extremalcq/internal/cq"
	"extremalcq/internal/duality"
	"extremalcq/internal/enum"
	"extremalcq/internal/fitting"
	"extremalcq/internal/frontier"
	"extremalcq/internal/genex"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/solve"
)

// VerifyWeaklyMostGeneral decides, exactly and in polynomial time
// (Thm 5.23), whether the tree CQ q is a weakly most-general fitting for
// E. The check follows Prop 5.22 with the frontier F(core(q)) of
// Def 3.21: q is weakly most-general among tree CQs iff q fits and every
// frontier member whose distinguished element occurs in a fact simulates
// into some negative example.
//
// Why this is exact: (⇐) every strict tree generalization p of q maps
// homomorphically into some frontier member m, so p ⪯ m, and composing
// partial simulations pointwise gives p ⪯ negative — p cannot fit.
// (⇒) if a member m with non-isolated root fails to simulate into every
// negative, the deep unravelings of m at its root are fitting strict
// tree generalizations (Lemma 5.5; a simulation from a pointed instance
// only constrains the part reachable from its root, so members with
// isolated roots yield no tree generalization and are skipped).
func VerifyWeaklyMostGeneral(q *cq.CQ, e Examples) (bool, error) {
	return VerifyWeaklyMostGeneralCtx(context.Background(), q, e)
}

// VerifyWeaklyMostGeneralCtx is VerifyWeaklyMostGeneral under a solver
// context.
func VerifyWeaklyMostGeneralCtx(ctx context.Context, q *cq.CQ, e Examples) (bool, error) {
	ok, err := VerifyCtx(ctx, q, e)
	if err != nil || !ok {
		return false, err
	}
	core := hom.CoreCtx(ctx, q.Example())
	members, err := frontier.ForCoreCtx(ctx, core)
	if err != nil {
		return false, err
	}
	for _, m := range members {
		if !m.I.InDom(m.Tuple[0]) {
			continue // isolated root: no tree CQ lives under this member
		}
		if !SimulatesToAnyCtx(ctx, m, e.Neg) {
			return false, nil
		}
	}
	return true, nil
}

// StrictGeneralization returns a fitting tree CQ strictly more general
// than q when q is not weakly most-general: the witness is an unraveling
// of a failing frontier member (the construction in the proof sketch
// above). maxDepth bounds the unraveling.
func StrictGeneralization(q *cq.CQ, e Examples, maxDepth int) (*cq.CQ, bool, error) {
	ok, err := Verify(q, e)
	if err != nil || !ok {
		return nil, false, err
	}
	core := hom.Core(q.Example())
	members, err := frontier.ForCoreCtx(context.Background(), core)
	if err != nil {
		return nil, false, err
	}
	for _, m := range members {
		if !m.I.InDom(m.Tuple[0]) || SimulatesToAny(m, e.Neg) {
			continue
		}
		for d := 1; d <= maxDepth; d++ {
			u, err := Unravel(m, d)
			if err != nil {
				return nil, false, err
			}
			p, err := cq.FromExample(u)
			if err != nil {
				continue
			}
			fits, err := Verify(p, e)
			if err != nil || !fits {
				continue
			}
			// Strictness: q ⊆ p (e_p ⪯ e_q) but not conversely.
			if Simulates(u, q.Example()) && !Simulates(q.Example(), u) {
				return p, true, nil
			}
		}
	}
	return nil, false, fmt.Errorf("tree: no strict generalization found within depth %d", maxDepth)
}

// SearchWeaklyMostGeneral looks for a weakly most-general fitting tree
// CQ within the given bounds, verifying candidates exactly. Found
// answers are exact; "not found" is definitive only within the bounds
// (the paper decides existence with TWAPA emptiness, Thm 5.24; see
// README, "Substitutions for the paper's automata", item 2).
func SearchWeaklyMostGeneral(e Examples, opts fitting.SearchOpts) (*cq.CQ, bool, error) {
	return SearchWeaklyMostGeneralCtx(context.Background(), e, opts)
}

// SearchWeaklyMostGeneralCtx is SearchWeaklyMostGeneral under a solver
// context: ctx is checked per candidate, and the first verification
// error stops the enumeration (the search's outcome is that error, so
// the rest of the candidate space is wasted work).
func SearchWeaklyMostGeneralCtx(ctx context.Context, e Examples, opts fitting.SearchOpts) (*cq.CQ, bool, error) {
	if err := checkExamples(e); err != nil {
		return nil, false, err
	}
	var found *cq.CQ
	var firstErr error
	genex.EnumerateDataExamplesCtx(ctx, e.Schema, 1, opts.MaxAtoms, opts.MaxVars, func(ex instance.Pointed) bool {
		solve.Check(ctx)
		q, err := cq.FromExample(ex)
		if err != nil || !IsTreeCQ(q) {
			return true
		}
		ok, err := VerifyWeaklyMostGeneralCtx(ctx, q, e)
		if err != nil {
			firstErr = err
			return false
		}
		if ok {
			found = q
			return false
		}
		return true
	})
	if found != nil {
		return found, true, nil
	}
	return nil, false, firstErr
}

// ForEachWeaklyMostGeneral streams the weakly most-general fitting tree
// CQs within the bounds: yield is invoked for each verified answer as
// soon as it is found, deduplicated up to simulation equivalence
// incrementally, until yield returns false or the space is exhausted.
func ForEachWeaklyMostGeneral(e Examples, opts fitting.SearchOpts, yield func(*cq.CQ) bool) error {
	return ForEachWeaklyMostGeneralCtx(context.Background(), e, opts, yield)
}

// ForEachWeaklyMostGeneralCtx is ForEachWeaklyMostGeneral under a
// solver context. Dedup runs through an incremental core-fingerprint
// index (internal/enum; sound for simulation equivalence because over
// tree CQs it coincides with homomorphic equivalence) with the exact
// SimEquivalentCtx check inside each bucket, and the first verification
// error stops the enumeration.
func ForEachWeaklyMostGeneralCtx(ctx context.Context, e Examples, opts fitting.SearchOpts, yield func(*cq.CQ) bool) error {
	if err := checkExamples(e); err != nil {
		return err
	}
	rec := obs.FromContext(ctx)
	sp := rec.StartSpan(obs.PhaseEnum)
	defer sp.End()
	seen := enum.NewIndex(SimEquivalentCtx)
	var firstErr error
	genex.EnumerateDataExamplesCtx(ctx, e.Schema, 1, opts.MaxAtoms, opts.MaxVars, func(ex instance.Pointed) bool {
		solve.Check(ctx)
		rec.Add(obs.CtrEnumCandidates, 1)
		q, err := cq.FromExample(ex)
		if err != nil || !IsTreeCQ(q) {
			return true
		}
		ok, err := VerifyWeaklyMostGeneralCtx(ctx, q, e)
		if err != nil {
			firstErr = err
			return false
		}
		if !ok || seen.Seen(ctx, q.Example()) {
			return true
		}
		return yield(q)
	})
	return firstErr
}

// AllWeaklyMostGeneral collects the weakly most-general fitting tree CQs
// within the bounds, up to equivalence.
func AllWeaklyMostGeneral(e Examples, opts fitting.SearchOpts) ([]*cq.CQ, error) {
	return allWeaklyMostGeneral(context.Background(), e, opts)
}

func allWeaklyMostGeneral(ctx context.Context, e Examples, opts fitting.SearchOpts) ([]*cq.CQ, error) {
	var out []*cq.CQ
	err := ForEachWeaklyMostGeneralCtx(ctx, e, opts, func(q *cq.CQ) bool {
		out = append(out, q)
		return true
	})
	return out, err
}

// VerifyUnique decides unique-fitting verification for tree CQs
// (Thm 5.25): most-specific and weakly most-general.
func VerifyUnique(q *cq.CQ, e Examples) (bool, error) {
	return VerifyUniqueCtx(context.Background(), q, e)
}

// VerifyUniqueCtx is VerifyUnique under a solver context.
func VerifyUniqueCtx(ctx context.Context, q *cq.CQ, e Examples) (bool, error) {
	ok, err := VerifyMostSpecificCtx(ctx, q, e)
	if err != nil || !ok {
		return false, err
	}
	return VerifyWeaklyMostGeneralCtx(ctx, q, e)
}

// ExistsUnique decides existence of a unique fitting tree CQ, exactly:
// a unique fitting must be the most-specific fitting, so it exists iff
// the most-specific fitting exists and is weakly most-general.
func ExistsUnique(e Examples) (*cq.CQ, bool, error) {
	return ExistsUniqueCtx(context.Background(), e)
}

// ExistsUniqueCtx is ExistsUnique under a solver context.
func ExistsUniqueCtx(ctx context.Context, e Examples) (*cq.CQ, bool, error) {
	q, ok, err := ConstructMostSpecificCtx(ctx, e, 1<<20)
	if err != nil || !ok {
		return nil, false, err
	}
	isWMG, err := VerifyWeaklyMostGeneralCtx(ctx, q, e)
	if err != nil {
		return nil, false, err
	}
	if !isWMG {
		return nil, false, nil
	}
	return q, true, nil
}

// ---------------------------------------------------------------------
// Bases of most-general fitting tree CQs (Section 5.4)
// ---------------------------------------------------------------------

// VerifyBasis decides basis verification for tree CQs (Thm 5.28),
// exactly over binary schemas: each q_i fits, and with D the
// homomorphism-duality set of the canonical examples, every d in D
// satisfies d × p ⪯ some negative, where p is the positive product
// (relativized simulation duality, Prop 5.27).
func VerifyBasis(qs []*cq.CQ, e Examples) (bool, error) {
	return VerifyBasisCtx(context.Background(), qs, e)
}

// VerifyBasisCtx is VerifyBasis under a solver context.
func VerifyBasisCtx(ctx context.Context, qs []*cq.CQ, e Examples) (bool, error) {
	if len(qs) == 0 {
		return false, nil
	}
	for _, q := range qs {
		ok, err := VerifyCtx(ctx, q, e)
		if err != nil || !ok {
			return false, err
		}
	}
	var exs []instance.Pointed
	for _, q := range qs {
		exs = append(exs, hom.CoreCtx(ctx, q.Example()))
	}
	D, err := duality.DualOfSetCtx(ctx, exs)
	if err != nil {
		return false, err
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
		if !SimulatesToAnyCtx(ctx, dp, e.Neg) {
			return false, nil
		}
	}
	return true, nil
}

// SearchBasis looks for a basis of most-general fitting tree CQs within
// the bounds: the weakly most-general fittings found are checked exactly
// with VerifyBasis.
func SearchBasis(e Examples, opts fitting.SearchOpts) ([]*cq.CQ, bool, error) {
	return SearchBasisCtx(context.Background(), e, opts)
}

// SearchBasisCtx is SearchBasis under a solver context.
func SearchBasisCtx(ctx context.Context, e Examples, opts fitting.SearchOpts) ([]*cq.CQ, bool, error) {
	cands, err := allWeaklyMostGeneral(ctx, e, opts)
	if err != nil {
		return nil, false, err
	}
	if len(cands) == 0 {
		return nil, false, nil
	}
	ok, err := VerifyBasisCtx(ctx, cands, e)
	if err != nil || !ok {
		return nil, false, err
	}
	return cands, true, nil
}

// CriticalFittings enumerates the critical fitting tree CQs within the
// bounds: fittings none of whose subtree-removals still fit
// (Section 5.4). By Lemma 5.30 a basis exists iff there are finitely
// many of these.
func CriticalFittings(e Examples, opts fitting.SearchOpts) ([]*cq.CQ, error) {
	if err := checkExamples(e); err != nil {
		return nil, err
	}
	var out []*cq.CQ
	seen := enum.NewIndex(SimEquivalentCtx)
	genex.EnumerateDataExamples(e.Schema, 1, opts.MaxAtoms, opts.MaxVars, func(ex instance.Pointed) bool {
		q, err := cq.FromExample(ex)
		if err != nil || !IsTreeCQ(q) {
			return true
		}
		ok, err := Verify(q, e)
		if err != nil || !ok {
			return true
		}
		if !isCritical(q, e) {
			return true
		}
		if !seen.Seen(context.Background(), q.Example()) {
			out = append(out, q)
		}
		return true
	})
	return out, nil
}

// isCritical reports that no proper subtree-removal of q still fits.
func isCritical(q *cq.CQ, e Examples) bool {
	ex := q.Example()
	root := ex.Tuple[0]
	for _, v := range ex.I.Dom() {
		if v == root {
			continue
		}
		sub := removeSubtree(ex, v)
		p, err := cq.FromExample(sub)
		if err != nil || !IsTreeCQ(p) {
			continue
		}
		ok, err := Verify(p, e)
		if err == nil && ok {
			return false
		}
	}
	return true
}

// removeSubtree drops the subtree rooted at v (away from the root).
func removeSubtree(ex instance.Pointed, v instance.Value) instance.Pointed {
	// BFS from the root avoiding v: keep reached values.
	keep := map[instance.Value]bool{ex.Tuple[0]: true}
	queue := []instance.Value{ex.Tuple[0]}
	//cqlint:ignore ctxloop -- keep-set-guarded BFS visits each instance value at most once
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, st := range RoleSteps(ex.I, cur) {
			if st.Other == v || keep[st.Other] {
				continue
			}
			keep[st.Other] = true
			queue = append(queue, st.Other)
		}
	}
	return instance.Pointed{I: ex.I.Restrict(keep), Tuple: ex.Tuple}
}
