package hom

import (
	"context"
	"runtime"

	"extremalcq/internal/compact"
)

// This file routes every search the join tree does not serve to the
// compact solver core (internal/compact): interned uint32 domains, CSR
// adjacency, bitset candidate sets and an optional parallel prefix
// splitter.

type searchWorkersKey struct{}

// WithSearchWorkers returns a context under which compact searches fan
// the top of the backtracking tree out to up to n workers. n <= 0
// means GOMAXPROCS. Without this key searches run single-threaded,
// which keeps bare library calls deterministic; the engine sets it
// from Options.SearchWorkers.
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

// solveCompact answers the search through the compact core.
func (s *search) solveCompact() (Assignment, bool) {
	rep := compact.Build(s.ctx, s.from.I, s.to.I, s.pinned)
	ids, ok := rep.Find(s.ctx, searchWorkersFrom(s.ctx))
	if !ok {
		return nil, false
	}
	res := Assignment(rep.ToAssignment(ids))
	for a, b := range s.fixed {
		res[a] = b
	}
	return res, true
}

// enumerateCompact yields every homomorphism through the compact core.
// The enumeration order is deterministic for a fixed worker count and,
// by the splitter's prefix-ordered merge, identical across worker
// counts.
func (s *search) enumerateCompact(yield func(Assignment) bool) {
	rep := compact.Build(s.ctx, s.from.I, s.to.I, s.pinned)
	workers := searchWorkersFrom(s.ctx)
	rep.FindAll(s.ctx, workers, func(sol []uint32) bool {
		a := Assignment(rep.ToAssignment(sol))
		for k, b := range s.fixed {
			a[k] = b
		}
		return yield(a)
	})
}
