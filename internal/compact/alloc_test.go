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
		return testing.AllocsPerRun(100, func() { Build(context.Background(), from, to) })
	}
	small, large := allocs(4), allocs(32)
	t.Logf("Build allocates %.0f times at ParityCycle(4), %.0f at ParityCycle(32)", small, large)
	if large != small {
		t.Errorf("Build allocates %.0f times at ParityCycle(32) and %.0f at ParityCycle(4); want no growth with the source", large, small)
	}
}

// TestFindAllocs pins a sequential backtracking search on a warm arena
// at no allocation: the searcher with its domains, trail, candidate
// lists, propagation queue, queued flags and support bitsets all come
// from the arena's scratch.
func TestFindAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of its items, so arena reuse is not measurable")
	}
	ctx := WithArena(context.Background(), NewArena())
	r := Build(ctx, genex.ParityCycle(10), genex.ParityTarget())
	if ok, _ := r.Find(ctx, Cut{}, 1, nil); ok {
		t.Fatal("ParityCycle(10) -> ParityTarget must be unsatisfiable")
	}
	if n := testing.AllocsPerRun(100, func() { r.Find(ctx, Cut{}, 1, nil) }); n > 0 {
		t.Errorf("a sequential Find on a warm arena allocates %.0f times, want none", n)
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
// compiled forms: Build allocates the Rep and its seeded domains, the
// same two at ParityChain(4) and at ParityChain(32), since the source's
// facts are shared with its form, and a join-tree Find on a warm arena
// nothing (the alive words, cursors and solution vector come from the
// arena's scratch).
func TestJoinTreeAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of its items, so arena reuse is not measurable")
	}
	ctx := WithArena(context.Background(), NewArena())
	to := instance.NewPointed(relaxedParity())
	allocs := func(n int) (build, find float64) {
		from := genex.ParityChain(n)
		if !Acyclic(ctx, from.I) {
			t.Fatalf("ParityChain(%d) must be acyclic", n)
		}
		r := Build(ctx, from, to)
		c := r.Cut(ctx)
		if ok, path := r.Find(ctx, c, 1, nil); !ok || path != PathJoinTree {
			t.Fatalf("ParityChain(%d) must map into the relaxed parity target on the join tree", n)
		}
		build = testing.AllocsPerRun(100, func() { Build(ctx, from, to) })
		find = testing.AllocsPerRun(100, func() { r.Find(ctx, c, 1, nil) })
		return build, find
	}
	smallBuild, smallFind := allocs(4)
	largeBuild, largeFind := allocs(32)
	t.Logf("Build allocates %.0f/%.0f times and the join-tree Find %.0f/%.0f at ParityChain(4)/(32)",
		smallBuild, largeBuild, smallFind, largeFind)
	if largeBuild != smallBuild || largeFind != smallFind {
		t.Errorf("Build allocates %.0f times at ParityChain(4) and %.0f at (32), Find %.0f and %.0f; want no growth with the source",
			smallBuild, largeBuild, smallFind, largeFind)
	}
	if smallBuild > 2 || smallFind > 0 {
		t.Errorf("Build allocates %.0f times and Find %.0f; want at most 2 and none", smallBuild, smallFind)
	}
}
