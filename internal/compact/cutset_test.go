package compact

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
)

// checkCut checks a cut's forest against the source with C's variables
// removed: every link shares a variable outside C, and the facts
// holding each variable outside C form one connected subtree (the
// running-intersection property a resumed ear removal must keep).
func checkCut(t *testing.T, name string, f *Form, pinned []uint32, c Cut) {
	t.Helper()
	inC := make([]bool, len(f.vals))
	for _, v := range slices.Concat(pinned, c.branch) {
		inC[v] = true
	}
	fo := c.forest
	for e, p := range fo.parent {
		if p >= 0 && fo.sharedOff[e] == fo.sharedOff[e+1] {
			t.Fatalf("%s: fact %d links to parent %d through no variable outside C", name, e, p)
		}
	}
	for v := range f.vals {
		if inC[v] {
			continue
		}
		exits := 0
		for _, e := range f.varFacts[f.varOff[v]:f.varOff[v+1]] {
			if p := fo.parent[e]; p < 0 || !slices.Contains(f.facts[p].args, uint32(v)) {
				exits++
			}
		}
		if exits != 1 {
			t.Fatalf("%s: variable %q spans %d disconnected forest regions", name, f.vals[v], exits)
		}
	}
}

// TestCutForests checks the cuts peeling chooses: on random cyclic
// sources with pinned tuples of arity 0 to 2, every forest is a valid
// join forest of the rest, and at most maxPeel variables are peeled; a
// parity cycle is cut at {x1, y1} at every length, K7 and K8 at five
// and six variables, and K9, which needs seven, is left to the
// backtracker.
func TestCutForests(t *testing.T) {
	ctx := context.Background()
	sch := schema.MustNew(
		schema.Relation{Name: "R", Arity: 2},
		schema.Relation{Name: "P", Arity: 1},
		schema.Relation{Name: "T", Arity: 3},
	)
	rng := rand.New(rand.NewSource(24))
	cuts := 0
	for i := 0; i < 2000; i++ {
		from := genex.RandomPointed(rng, sch, 3+rng.Intn(8), 3+rng.Intn(12), rng.Intn(3))
		if Acyclic(ctx, from.I) {
			continue
		}
		f := compile(from.I)
		var pinned []uint32
		for _, a := range from.Tuple {
			if v, ok := slices.BinarySearch(f.vals, a); ok && !slices.Contains(pinned, uint32(v)) {
				pinned = append(pinned, uint32(v))
			}
		}
		slices.Sort(pinned)
		c := f.cut(ctx, pinned)
		if c.forest == nil {
			continue
		}
		if len(c.branch) > maxPeel || !c.cond {
			t.Fatalf("random #%d: cut of %d peeled variables, cond=%v", i, len(c.branch), c.cond)
		}
		checkCut(t, "random", f, pinned, c)
		cuts++
	}
	if cuts < 100 {
		t.Fatalf("only %d random sources got a cut", cuts)
	}

	for n := 3; n <= 20; n++ {
		p := genex.ParityCycle(n)
		r := Build(ctx, p, genex.ParityTarget())
		c := r.Cut(ctx)
		var got []instance.Value
		for _, v := range c.branch {
			got = append(got, r.src.vals[v])
		}
		if !slices.Equal(got, []instance.Value{"x1", "y1"}) {
			t.Fatalf("ParityCycle(%d) is cut at %v, want [x1 y1]", n, got)
		}
		checkCut(t, "parity", r.src, nil, c)
	}
	for k, want := range map[int]int{7: 5, 8: 6, 9: -1} {
		r := Build(ctx, genex.Clique(k), genex.Clique(k-1))
		c := r.Cut(ctx)
		if got := len(c.branch); c.forest == nil && want != -1 || c.forest != nil && got != want {
			t.Fatalf("K%d is cut at %d variables (forest %v), want %d", k, got, c.forest != nil, want)
		}
	}
}
