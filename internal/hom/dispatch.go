package hom

import (
	"context"
	"sync/atomic"

	"extremalcq/internal/hypergraph"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
)

// This file is the structure-aware dispatch in front of the hom search:
// sources whose query hypergraph is α-acyclic are solved by the
// Yannakakis-style join-tree evaluator in internal/hypergraph, all
// others fall back to the generic GAC backtracking search. Dispatch
// sits below the memo cache, so cached entries are path-independent.

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

// probeJoinTree decides the dispatch path for this search. When the
// source is α-acyclic (and the mode allows it), it returns the
// hypergraph and join forest to evaluate over; otherwise acyclic=false
// routes the caller to the backtracking search. The probe itself is
// memoized per instance fingerprint (see hypergraph.Probe), so on a hot
// engine it is one cache lookup.
func (s *search) probeJoinTree() (hg *hypergraph.Hypergraph, fo *hypergraph.Forest, acyclic bool) {
	stats := dispatchStatsFrom(s.ctx)
	if dispatchModeFrom(s.ctx) == DispatchBacktrack {
		s.rec.Add(obs.CtrDispatchBacktrack, 1)
		if stats != nil {
			stats.backtrack.Add(1)
		}
		return nil, nil, false
	}
	hg, fo, acyclic = s.decompose()
	if acyclic {
		s.rec.Add(obs.CtrDispatchJoinTree, 1)
		if stats != nil {
			stats.jointree.Add(1)
		}
		return hg, fo, true
	}
	s.rec.Add(obs.CtrDispatchBacktrack, 1)
	if stats != nil {
		stats.backtrack.Add(1)
	}
	return nil, nil, false
}

// decompose runs the (memoized) acyclicity probe under its own phase
// span, so decomposition time is attributed separately from evaluation.
func (s *search) decompose() (*hypergraph.Hypergraph, *hypergraph.Forest, bool) {
	sp := s.rec.StartSpan(obs.PhaseHypergraphDecompose)
	defer sp.End()
	return hypergraph.Probe(s.ctx, s.from)
}

// solveJoinTree finds one homomorphism via the semi-join evaluator and
// merges the fixed images of distinguished elements outside adom(from),
// matching solveCompact's result shape exactly.
func (s *search) solveJoinTree(hg *hypergraph.Hypergraph, fo *hypergraph.Forest) (Assignment, bool) {
	sp := s.rec.StartSpan(obs.PhaseSemijoin)
	defer sp.End()
	h, ok := hypergraph.Solve(s.ctx, hg, fo, s.to.I, s.pinned)
	if !ok {
		return nil, false
	}
	res := Assignment(h)
	for a, b := range s.fixed {
		res[a] = b
	}
	return res, true
}

// enumerateJoinTree yields every homomorphism via the semi-join
// evaluator, merging fixed images into each answer, matching
// enumerateCompact's yield contract (including early stop on
// yield=false).
func (s *search) enumerateJoinTree(hg *hypergraph.Hypergraph, fo *hypergraph.Forest, yield func(Assignment) bool) {
	sp := s.rec.StartSpan(obs.PhaseSemijoin)
	defer sp.End()
	hypergraph.Enumerate(s.ctx, hg, fo, s.to.I, s.pinned, func(h map[instance.Value]instance.Value) bool {
		a := Assignment(h)
		for k, b := range s.fixed {
			a[k] = b
		}
		return yield(a)
	})
}
