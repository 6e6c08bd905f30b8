package hom

import (
	"context"
	"runtime"
	"sync/atomic"

	"extremalcq/internal/compact"
	"extremalcq/internal/obs"
)

// This file is the structure-aware dispatch in front of the hom search.
// The search runs in internal/compact, on the compiled forms of the
// source and the target, and branches on a conditioning set C of source
// variables before the join tree finishes the acyclic rest: dispatch
// only chooses C. It sits below the memo cache, so cached entries are
// path-independent.

// DispatchMode selects how the hom search chooses its conditioning set.
type DispatchMode int

const (
	// DispatchAuto takes the cut compact keeps on the source's form: C
	// = ∅ (the join tree) for an α-acyclic source, a small cycle cutset
	// when one fits the leaf budget, every variable otherwise. The
	// default.
	DispatchAuto DispatchMode = iota
	// DispatchBacktrack sets C to every variable, the generic
	// backtracking search, skipping the structure probe. Used by
	// conformance and property tests to cross-check the paths, and by
	// the engine's ForceBacktrack option.
	DispatchBacktrack
)

// DispatchStats counts, per engine, how many hom searches each dispatch
// path served; a search cut short by its context is not counted. Safe
// for concurrent use; the zero value is ready.
type DispatchStats struct {
	paths [3]atomic.Int64 // indexed by compact.Path
}

// Snapshot returns the current (jointree, cutset, backtrack) counts.
func (d *DispatchStats) Snapshot() (jointree, cutset, backtrack int64) {
	return d.paths[compact.PathJoinTree].Load(), d.paths[compact.PathCutset].Load(), d.paths[compact.PathBacktrack].Load()
}

// pathCounter names a path's counter in explain reports.
func pathCounter(p compact.Path) obs.Counter {
	switch p {
	case compact.PathJoinTree:
		return obs.CtrDispatchJoinTree
	case compact.PathCutset:
		return obs.CtrDispatchCutset
	}
	return obs.CtrDispatchBacktrack
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

// cut chooses the search's conditioning set: every variable when
// dispatch is forced to the backtracker, otherwise the cut compact
// keeps on the source's compiled form for its pinned variables,
// computed under the hypergraph_decompose span on first use and a
// load after.
func (s *search) cut() compact.Cut {
	if dispatchModeFrom(s.ctx) == DispatchBacktrack {
		return compact.Cut{}
	}
	sp := s.rec.StartSpan(obs.PhaseHypergraphDecompose)
	defer sp.End()
	return s.rep.Cut(s.ctx)
}

// count records the path a search took on the recorder and in the
// context's DispatchStats.
func (s *search) count(p compact.Path) {
	s.rec.Add(pathCounter(p), 1)
	if stats := dispatchStatsFrom(s.ctx); stats != nil {
		stats.paths[p].Add(1)
	}
}

// find reports whether a homomorphism exists and copies the one found
// into sol unless sol is nil.
func (s *search) find(sol []uint32) bool {
	ok, path := s.rep.Find(s.ctx, s.cut(), searchWorkersFrom(s.ctx), sol)
	s.count(path)
	return ok
}

// findAll yields every solution. The backtracker's order is
// deterministic for a fixed worker count and, by the splitter's
// prefix-ordered merge, identical across worker counts.
func (s *search) findAll(yield func([]uint32) bool) {
	s.count(s.rep.FindAll(s.ctx, s.cut(), searchWorkersFrom(s.ctx), yield))
}

// assignment converts a solution into the value-level assignment the
// hom layer returns, with the images of distinguished elements outside
// adom(from) merged in.
func (s *search) assignment(sol []uint32) Assignment {
	a := Assignment(s.rep.ToAssignment(sol))
	for i, x := range s.from.Tuple {
		if !s.from.I.InDom(x) {
			a[x] = s.to.Tuple[i]
		}
	}
	return a
}
