package compact

import (
	"context"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
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

// relaxedParity is the parity target with A relaxed to all four pairs,
// into which every parity chain maps.
func relaxedParity() *instance.Instance {
	to := genex.ParityTarget().I
	for _, pair := range [][2]instance.Value{{"0", "1"}, {"1", "0"}} {
		if err := to.AddFact("A", pair[0], pair[1]); err != nil {
			panic(err)
		}
	}
	return to
}

// TestJoinTreeAllocsFlat pins the allocation counts of a search over
// compiled forms: Build (the Rep, its facts and its seeded domains)
// and a join-tree FindJoin on a warm arena (the copied witness; the
// alive words, cursors and solution vector come from the arena's
// scratch) each allocate a constant, the same at ParityChain(4) and at
// ParityChain(32).
func TestJoinTreeAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of its items, so arena reuse is not measurable")
	}
	ctx := WithArena(context.Background(), NewArena())
	to := relaxedParity()
	allocs := func(n int) (build, find float64) {
		from := genex.ParityChain(n).I
		if !Acyclic(ctx, from) {
			t.Fatalf("ParityChain(%d) must be acyclic", n)
		}
		r := Build(ctx, from, to, nil)
		if _, ok := r.FindJoin(ctx); !ok {
			t.Fatalf("ParityChain(%d) must map into the relaxed parity target", n)
		}
		build = testing.AllocsPerRun(100, func() { Build(ctx, from, to, nil) })
		find = testing.AllocsPerRun(100, func() { r.FindJoin(ctx) })
		return build, find
	}
	smallBuild, smallFind := allocs(4)
	largeBuild, largeFind := allocs(32)
	t.Logf("Build allocates %.0f/%.0f times and FindJoin %.0f/%.0f at ParityChain(4)/(32)",
		smallBuild, largeBuild, smallFind, largeFind)
	if largeBuild != smallBuild || largeFind != smallFind {
		t.Errorf("Build allocates %.0f times at ParityChain(4) and %.0f at (32), FindJoin %.0f and %.0f; want no growth with the source",
			smallBuild, largeBuild, smallFind, largeFind)
	}
	if smallBuild > 3 || smallFind > 1 {
		t.Errorf("Build allocates %.0f times and FindJoin %.0f; want at most 3 and 1", smallBuild, smallFind)
	}
}
