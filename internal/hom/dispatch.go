package hom

import (
	"context"
	"runtime"
	"sync/atomic"

	"extremalcq/internal/compact"
	"extremalcq/internal/obs"
)

// This file is the structure-aware dispatch in front of the hom search.
// Both evaluators run in internal/compact, on the compiled forms of the
// source and the target: sources whose query hypergraph is α-acyclic
// take the Yannakakis-style join tree, all others the GAC backtracking
// core. Dispatch sits below the memo cache, so cached entries are
// path-independent.

// DispatchMode selects how the hom search routes between the join-tree
// fast path and the backtracking search.
type DispatchMode int

const (
	// DispatchAuto probes the source's hypergraph and takes the
	// join-tree path when it is α-acyclic. The default.
	DispatchAuto DispatchMode = iota
	// DispatchBacktrack forces the generic backtracking search, skipping
	// the acyclicity probe. Used by conformance and property tests to
	// cross-check the two paths, and by the engine's ForceBacktrack
	// option.
	DispatchBacktrack
)

// DispatchStats counts, per engine, how many hom searches each dispatch
// path served. Safe for concurrent use; the zero value is ready.
type DispatchStats struct {
	jointree  atomic.Int64
	backtrack atomic.Int64
}

// Snapshot returns the current (jointree, backtrack) counts.
func (d *DispatchStats) Snapshot() (jointree, backtrack int64) {
	return d.jointree.Load(), d.backtrack.Load()
}

type dispatchModeKey struct{}
type dispatchStatsKey struct{}
type searchWorkersKey struct{}

// WithDispatchMode returns a context carrying the dispatch mode for hom
// searches under it.
func WithDispatchMode(ctx context.Context, m DispatchMode) context.Context {
	return context.WithValue(ctx, dispatchModeKey{}, m)
}

func dispatchModeFrom(ctx context.Context) DispatchMode {
	if ctx == nil {
		return DispatchAuto
	}
	m, _ := ctx.Value(dispatchModeKey{}).(DispatchMode)
	return m
}

// WithDispatchStats returns a context carrying d; every hom search under
// it increments the counter of the path it took. A nil d returns ctx
// unchanged.
func WithDispatchStats(ctx context.Context, d *DispatchStats) context.Context {
	if d == nil {
		return ctx
	}
	return context.WithValue(ctx, dispatchStatsKey{}, d)
}

func dispatchStatsFrom(ctx context.Context) *DispatchStats {
	if ctx == nil {
		return nil
	}
	d, _ := ctx.Value(dispatchStatsKey{}).(*DispatchStats)
	return d
}

// WithSearchWorkers returns a context under which backtracking searches
// fan the top of the search tree out to up to n workers. n <= 0 means
// GOMAXPROCS. Without this key searches run single-threaded, which
// keeps bare library calls deterministic; the engine sets it from
// Options.SearchWorkers.
func WithSearchWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, searchWorkersKey{}, n)
}

func searchWorkersFrom(ctx context.Context) int {
	if ctx == nil {
		return 1
	}
	n, ok := ctx.Value(searchWorkersKey{}).(int)
	if !ok {
		return 1
	}
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// joinTree decides the dispatch path for this search and counts it:
// true when the mode allows the join tree and the source is α-acyclic.
// The acyclicity probe runs under its own phase span; its verdict is
// memoized on the source's compiled form, so on a hot source it is one
// load.
func (s *search) joinTree() bool {
	jt := dispatchModeFrom(s.ctx) != DispatchBacktrack && s.acyclic()
	if jt {
		s.rec.Add(obs.CtrDispatchJoinTree, 1)
	} else {
		s.rec.Add(obs.CtrDispatchBacktrack, 1)
	}
	if stats := dispatchStatsFrom(s.ctx); stats != nil {
		if jt {
			stats.jointree.Add(1)
		} else {
			stats.backtrack.Add(1)
		}
	}
	return jt
}

func (s *search) acyclic() bool {
	sp := s.rec.StartSpan(obs.PhaseHypergraphDecompose)
	defer sp.End()
	return compact.Acyclic(s.ctx, s.from.I)
}

// find returns one solution through the dispatched evaluator.
func (s *search) find() ([]uint32, bool) {
	if s.joinTree() {
		sp := s.rec.StartSpan(obs.PhaseSemijoin)
		defer sp.End()
		return s.rep.FindJoin(s.ctx)
	}
	return s.rep.Find(s.ctx, searchWorkersFrom(s.ctx))
}

// findAll yields every solution through the dispatched evaluator. The
// backtracker's order is deterministic for a fixed worker count and, by
// the splitter's prefix-ordered merge, identical across worker counts.
func (s *search) findAll(yield func([]uint32) bool) {
	if s.joinTree() {
		sp := s.rec.StartSpan(obs.PhaseSemijoin)
		defer sp.End()
		s.rep.FindAllJoin(s.ctx, yield)
		return
	}
	s.rep.FindAll(s.ctx, searchWorkersFrom(s.ctx), yield)
}

// assignment converts a solution into the value-level assignment the
// hom layer returns, with the fixed images of distinguished elements
// outside adom(from) merged in.
func (s *search) assignment(sol []uint32) Assignment {
	a := Assignment(s.rep.ToAssignment(sol))
	for k, b := range s.fixed {
		a[k] = b
	}
	return a
}
