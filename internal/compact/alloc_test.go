package compact

import (
	"context"
	"testing"

	"extremalcq/internal/genex"
)

// TestBuildAllocsFlat pins Build's allocation count: the source facts'
// args, equality types and var→fact index live in two slabs, so the
// count does not grow with the number of source facts.
func TestBuildAllocsFlat(t *testing.T) {
	to := genex.ParityTarget()
	to.I.BuildIndexes()
	allocs := func(n int) float64 {
		from := genex.ParityCycle(n)
		return testing.AllocsPerRun(100, func() { Build(context.Background(), from.I, to.I, nil) })
	}
	small, large := allocs(4), allocs(32)
	t.Logf("Build allocates %.0f times at ParityCycle(4), %.0f at ParityCycle(32)", small, large)
	if large != small {
		t.Errorf("Build allocates %.0f times at ParityCycle(32) and %.0f at ParityCycle(4); want no growth with the source", large, small)
	}
}

// TestFindAllocs pins a sequential search on a warm arena at one
// allocation: the domains, trail, candidate lists, propagation queue,
// queued flags and support bitsets all come from the arena's scratch.
func TestFindAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of its items, so arena reuse is not measurable")
	}
	ctx := WithArena(context.Background(), NewArena())
	r := Build(ctx, genex.ParityCycle(10).I, genex.ParityTarget().I, nil)
	if _, ok := r.Find(ctx, 1); ok {
		t.Fatal("ParityCycle(10) -> ParityTarget must be unsatisfiable")
	}
	if n := testing.AllocsPerRun(100, func() { r.Find(ctx, 1) }); n > 1 {
		t.Errorf("a sequential Find on a warm arena allocates %.0f times, want at most 1", n)
	}
}
