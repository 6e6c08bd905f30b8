package engine

import (
	"context"
	"fmt"

	"extremalcq/internal/cq"
	"extremalcq/internal/fitting"
	"extremalcq/internal/solve"
	"extremalcq/internal/tree"
	"extremalcq/internal/ucqfit"
)

// maxTreeExpand bounds the number of nodes a fitting tree DAG is
// expanded to before the engine falls back to reporting its DAG shape.
const maxTreeExpand = 100000

// dispatch runs a validated job with default-filled bounds under ctx
// and fills in everything of the Result except Elapsed and Trace. It is
// a pure dispatch onto the fitting, ucqfit and tree packages — the same
// calls the facade exposes — so engine results are identical to direct
// library calls (modulo the per-engine memo carried by ctx, which only
// changes cost, not answers). emit receives the job's frames: the
// enumeration tasks emit each answer as they find it, every other task
// its Result's queries at the end. first stops a weakly most-general
// search at its first answer (see Job.firstOnly).
//
// err is non-nil only for a cancellation unwinding out of the solvers
// (ordinary failures travel inside res.Err). res then holds only what
// may stand next to that error: the answers a weakly most-general
// search had already verified and emitted (see enumerate), and
// otherwise nothing — fields a task had filled in before the unwind (a
// Found flag without its rendered queries, say) are dropped rather than
// delivered half-set.
func dispatch(ctx context.Context, j Job, first bool, emit func(string)) (Result, error) {
	res := Result{Label: j.Label, Kind: j.Kind, Task: j.Task}
	if j.Task == TaskWeaklyMostGeneral || j.Task == TaskBasis {
		err := enumerate(ctx, j, first, &res, emit)
		return res, err
	}
	err := unwind(func() {
		switch j.Kind {
		case KindCQ:
			runCQ(ctx, j, &res)
		case KindUCQ:
			runUCQ(ctx, j, &res)
		case KindTree:
			runTree(ctx, j, &res)
		}
	})
	if err != nil {
		return failedResult(j, err), err
	}
	for _, q := range res.Queries {
		emit(q)
	}
	return res, nil
}

// unwind runs f and returns the error of a cancellation that unwound
// it (see package solve), or nil when f returned.
func unwind(f func()) (err error) {
	defer solve.Catch(&err)
	f()
	return nil
}

func runCQ(ctx context.Context, j Job, res *Result) {
	e := j.Examples
	switch j.Task {
	case TaskExists:
		res.Found, res.Err = fitting.ExistsCtx(ctx, e)
	case TaskConstruct, TaskMostSpecific:
		q, ok, err := fitting.ConstructMostSpecificCtx(ctx, e)
		if fill(res, ok, err) {
			res.Queries = []string{q.CoreCtx(ctx).String()}
		}
	case TaskUnique:
		q, ok, err := fitting.ExistsUniqueCtx(ctx, e)
		if fill(res, ok, err) {
			res.Queries = []string{q.CoreCtx(ctx).String()}
		}
	case TaskVerify:
		q, err := cq.Parse(e.Schema, j.Query)
		if err != nil {
			res.Err = err
			return
		}
		res.Found = fitting.VerifyCtx(ctx, q, e)
	}
}

func runUCQ(ctx context.Context, j Job, res *Result) {
	e := j.Examples
	switch j.Task {
	case TaskExists:
		res.Found = ucqfit.ExistsCtx(ctx, e)
	case TaskConstruct, TaskMostSpecific:
		u, ok, err := ucqfit.ConstructCtx(ctx, e)
		if fill(res, ok, err) {
			res.Queries = []string{u.String()}
		}
	case TaskUnique:
		u, ok, err := ucqfit.ExistsUniqueCtx(ctx, e)
		if fill(res, ok, err) {
			res.Queries = []string{u.String()}
		}
	case TaskVerify:
		u, err := ucqfit.Parse(e.Schema, j.Query)
		if err != nil {
			res.Err = err
			return
		}
		res.Found = ucqfit.VerifyCtx(ctx, u, e)
	}
}

func runTree(ctx context.Context, j Job, res *Result) {
	e := j.Examples
	switch j.Task {
	case TaskExists:
		res.Found, res.Err = tree.ExistsCtx(ctx, e)
	case TaskConstruct:
		dag, ok, err := tree.ConstructCtx(ctx, e)
		if !fill(res, ok, err) {
			return
		}
		q, err := dag.Expand(maxTreeExpand)
		if err != nil {
			res.Note = fmt.Sprintf("fitting tree CQ as DAG: depth %d, %d shared nodes (too large to expand)",
				dag.Depth, dag.NumNodes())
			return
		}
		res.Queries = []string{q.CoreCtx(ctx).String()}
	case TaskMostSpecific:
		q, ok, err := tree.ConstructMostSpecificCtx(ctx, e, maxTreeExpand)
		if fill(res, ok, err) {
			res.Queries = []string{q.CoreCtx(ctx).String()}
		}
	case TaskUnique:
		q, ok, err := tree.ExistsUniqueCtx(ctx, e)
		if fill(res, ok, err) {
			res.Queries = []string{q.CoreCtx(ctx).String()}
		}
	case TaskVerify:
		q, err := cq.Parse(e.Schema, j.Query)
		if err != nil {
			res.Err = err
			return
		}
		res.Found, res.Err = tree.VerifyCtx(ctx, q, e)
	}
}

// fill records the (found, err) pair on the result and reports whether
// the task produced a query to render.
func fill(res *Result, found bool, err error) bool {
	res.Found, res.Err = found, err
	return err == nil && found
}

// enumerate runs the weakly most-general and basis searches: each
// answer is a frame as soon as the search verifies it (for UCQs, each
// candidate disjunct), and the Result carries the task's answer list —
// for UCQs the verified union, for a basis the answers only once they
// verify as one. It returns the error of a cancellation that unwound
// the search; res is then shaped as for any error that cut the search
// short.
func enumerate(ctx context.Context, j Job, first bool, res *Result, emit func(string)) (canceled error) {
	var all []*cq.CQ
	var frames []string
	yield := func(q *cq.CQ) bool {
		s := q.String()
		all = append(all, q)
		frames = append(frames, s)
		emit(s)
		return !first
	}
	var err error
	var verifyBasis func(context.Context, []*cq.CQ, fitting.Examples) (bool, error)
	switch j.Kind {
	case KindCQ:
		canceled = unwind(func() { err = fitting.ForEachWeaklyMostGeneralCtx(ctx, j.Examples, j.Opts, yield) })
		verifyBasis = fitting.VerifyBasisCtx
	case KindTree:
		canceled = unwind(func() { err = tree.ForEachWeaklyMostGeneralCtx(ctx, j.Examples, j.Opts, yield) })
		verifyBasis = tree.VerifyBasisCtx
	case KindUCQ:
		// The frames are candidates, not answers: a search cut short by
		// an error or a cancellation reports none.
		return unwind(func() {
			if err := ucqfit.ForEachMostGeneralCandidateCtx(ctx, j.Examples, j.Opts, yield); err != nil {
				res.Err = err
				return
			}
			if len(all) > 0 {
				u, ok, err := ucqfit.CombineMostGeneralCtx(ctx, j.Examples, all)
				if fill(res, ok, err) {
					res.Queries = []string{u.String()}
				}
			}
		})
	}
	if canceled != nil {
		err = canceled
	}
	switch {
	case err != nil:
		// An error (e.g. the unsupported product candidate) or a
		// cancellation ends the search, not its verified answers.
		res.Err = err
		keepAnswers(res, j, first, frames)
	case j.Task == TaskWeaklyMostGeneral:
		res.Found, res.Queries = len(frames) > 0, frames
	case len(all) > 0:
		canceled = unwind(func() {
			ok, err := verifyBasis(ctx, all, j.Examples)
			if fill(res, ok, err) {
				res.Queries = frames
			}
		})
	}
	return canceled
}

// keepAnswers shapes the Result of a search that ended early, in an
// error or a cancellation, after verifying the answers in frames: a
// weakly most-general Result keeps them next to the error, unless it
// stopped at its first answer: that one reports none. A basis cannot be
// verified from an incomplete candidate set, and UCQ frames are
// candidate disjuncts, not answers, so both stay not-found.
func keepAnswers(res *Result, j Job, first bool, frames []string) {
	if j.Task != TaskWeaklyMostGeneral || j.Kind == KindUCQ {
		return
	}
	res.Found = len(frames) > 0
	if !first {
		res.Queries = frames
	}
}
