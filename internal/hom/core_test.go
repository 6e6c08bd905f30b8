package hom

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/schema"
)

// wholeInstanceCore is the oracle for Core: the retraction loop Core ran
// before it searched one component at a time. For each
// non-distinguished element m in turn it restricts the instance to the
// other elements and searches the whole instance into that copy; the
// first retraction found replaces the instance by its image, and the
// loop starts over. It shares no component logic with Core.
func wholeInstanceCore(p instance.Pointed) instance.Pointed {
	cur := p.Clone()
	for {
		dropped := false
		distinguished := make(map[instance.Value]bool, len(cur.Tuple))
		for _, a := range cur.Tuple {
			distinguished[a] = true
		}
		for _, m := range cur.I.Dom() {
			if distinguished[m] {
				continue
			}
			keep := make(map[instance.Value]bool, cur.I.DomSize()-1)
			for _, v := range cur.I.Dom() {
				if v != m {
					keep[v] = true
				}
			}
			target := instance.Pointed{I: cur.I.Restrict(keep), Tuple: cur.Tuple}
			if h, ok := Find(cur, target); ok {
				cur = imageOf(cur, h)
				dropped = true
				break
			}
		}
		if !dropped {
			return cur
		}
	}
}

// imageOf restricts p to the image of h (induced subinstance).
func imageOf(p instance.Pointed, h Assignment) instance.Pointed {
	keep := make(map[instance.Value]bool, len(h))
	for _, w := range h {
		keep[w] = true
	}
	for _, a := range p.Tuple {
		keep[a] = true
	}
	return instance.Pointed{I: p.I.Restrict(keep), Tuple: p.Tuple}
}

var schemaRP = schema.MustNew(schema.Relation{Name: "R", Arity: 2}, schema.Relation{Name: "P", Arity: 1})

// randomPositive draws a positive over R/2, P/1 on values prefix0..,
// with isolated extra elements that carry only a P fact, and a k-tuple
// from its domain; with repeat set, every distinguished element is the
// first one.
func randomPositive(rng *rand.Rand, prefix string, dom, facts, isolated, k int, repeat bool) instance.Pointed {
	in := instance.New(schemaRP)
	for range facts {
		if rng.Intn(2) == 0 {
			in.AddFact("R", instance.Value(fmt.Sprintf("%s%d", prefix, rng.Intn(dom))), instance.Value(fmt.Sprintf("%s%d", prefix, rng.Intn(dom))))
		} else {
			in.AddFact("P", instance.Value(fmt.Sprintf("%s%d", prefix, rng.Intn(dom))))
		}
	}
	for i := range isolated {
		in.AddFact("P", instance.Value(fmt.Sprintf("%si%d", prefix, i)))
	}
	adom := in.Dom()
	tuple := make([]instance.Value, k)
	for i := range tuple {
		tuple[i] = adom[rng.Intn(len(adom))]
		if repeat {
			tuple[i] = tuple[0]
		}
	}
	return instance.NewPointed(in, tuple...)
}

// TestCoreComponentOracle checks Core against the whole-instance
// oracle on 1,200 random products of two positives over R/2, P/1, at
// the sizes perfbench's construct and unique jobs core (4 values and 6
// facts) and its runaway size (6 values and 10 facts): k = 0, 1 and 2,
// a repeated distinguished element in a third of the binary cases, and
// isolated P elements in every third product. Cores are unique up to
// isomorphism, so the two must be isomorphic, and Core's must be
// hom-equivalent to its input.
func TestCoreComponentOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	seen := map[string]int{}
	for n := range 1200 {
		dom, facts := 4, 6
		if n%2 == 1 {
			dom, facts = 6, 10
		}
		k, isolated := n%3, 0
		repeat := k == 2 && n%9 >= 6
		if n%3 == n/3%3 {
			isolated = 1 + rng.Intn(3)
		}
		a := randomPositive(rng, "a", dom, facts, isolated, k, repeat)
		b := randomPositive(rng, "b", dom, facts, isolated, k, repeat)
		p, err := instance.Product(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, want := Core(p), wholeInstanceCore(p)
		if !instance.Isomorphic(got, want) {
			t.Fatalf("product %d: core\n %v\nis not isomorphic to the oracle's\n %v\nof %v", n, got, want, p)
		}
		if !Equivalent(got, p) {
			t.Fatalf("product %d: core %v is not hom-equivalent to %v", n, got, p)
		}
		if got.I.DomSize() < p.I.DomSize() {
			seen["shrunk"]++
		}
		if repeat && got.Tuple[0] == got.Tuple[1] {
			seen["repeated"]++
		}
		if isolated > 0 {
			seen["isolated"]++
		}
	}
	for _, c := range []string{"shrunk", "repeated", "isolated"} {
		if seen[c] == 0 {
			t.Errorf("no product was %s", c)
		}
	}
}

// splitCoreProduct is the product of perfbench's splitCore positives: a
// 4-element copy of the first positive's directed triangle (through the
// loop R(b1,b1)) next to a 16-element component into which no triangle
// maps but which arc consistency does not rule out.
func splitCoreProduct(t *testing.T) instance.Pointed {
	t.Helper()
	a := pointed(t, schemaRP, "R(a0,a2). R(a0,a4). R(a1,a0). R(a2,a1). R(a4,a2). P(a0). P(a2). P(a4)")
	b := pointed(t, schemaRP, "R(b0,b2). R(b2,b0). R(b0,b3). R(b3,b0). R(b5,b0). R(b1,b1). P(b5)")
	p, err := instance.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCoreSplitComponents pins the splitCore product's core and its
// search cost. Searching the whole instance for each retraction walked
// the 16-element component's assignments before each triangle element
// failed: 2,584 hom_nodes. On its own component each test takes a few
// nodes. The core text is the one the whole-instance loop gave, at one
// worker and at two: retraction tests run on one worker.
func TestCoreSplitComponents(t *testing.T) {
	const want = "{P(⟨a0,b5⟩), P(⟨a2,b5⟩), R(⟨a0,b0⟩,⟨a2,b2⟩), R(⟨a0,b0⟩,⟨a4,b2⟩), " +
		"R(⟨a0,b1⟩,⟨a2,b1⟩), R(⟨a0,b1⟩,⟨a4,b1⟩), R(⟨a0,b3⟩,⟨a2,b0⟩), R(⟨a0,b3⟩,⟨a4,b0⟩), " +
		"R(⟨a0,b5⟩,⟨a2,b0⟩), R(⟨a0,b5⟩,⟨a4,b0⟩), R(⟨a1,b0⟩,⟨a0,b3⟩), R(⟨a1,b1⟩,⟨a0,b1⟩), " +
		"R(⟨a1,b2⟩,⟨a0,b0⟩), R(⟨a2,b0⟩,⟨a1,b2⟩), R(⟨a2,b1⟩,⟨a1,b1⟩), R(⟨a2,b2⟩,⟨a1,b0⟩), " +
		"R(⟨a2,b5⟩,⟨a1,b0⟩), R(⟨a4,b0⟩,⟨a2,b2⟩), R(⟨a4,b1⟩,⟨a2,b1⟩), R(⟨a4,b2⟩,⟨a2,b0⟩)}"
	const maxNodes = 64
	p := splitCoreProduct(t)
	for _, workers := range []int{1, 2} {
		rec := obs.NewRecorder()
		ctx := obs.WithRecorder(WithSearchWorkers(context.Background(), workers), rec)
		c := CoreCtx(ctx, p)
		if got := c.I.String(); c.I.DomSize() != 14 || got != want {
			t.Errorf("%d workers: core of %d elements\n %s\nwant the 14-element\n %s", workers, c.I.DomSize(), got, want)
		}
		if nodes := rec.Count(obs.CtrHomNodes); nodes > maxNodes {
			t.Errorf("%d workers: %d hom_nodes, want at most %d", workers, nodes, maxNodes)
		}
	}
}

// TestCoreCountsEachTest checks the core's accounting: every retraction
// test is one hom search on the backtracking path, and every shrink one
// core retraction.
func TestCoreCountsEachTest(t *testing.T) {
	rec, stats := obs.NewRecorder(), &DispatchStats{}
	ctx := obs.WithRecorder(WithDispatchStats(context.Background(), stats), rec)
	two := pointed(t, binR, "R(a,b). R(c,d)")
	if c := CoreCtx(ctx, two); c.I.Size() != 1 {
		t.Fatalf("core of two disjoint edges: %v", c)
	}
	// Pass 1 drops a's edge (testing a), then tests c and d on the other
	// edge, which is settled; pass 2 tests nothing more.
	searches, retractions := rec.Count(obs.CtrHomSearches), rec.Count(obs.CtrCoreRetractions)
	if _, _, backtrack := stats.Snapshot(); searches != 3 || backtrack != searches || retractions != 1 {
		t.Errorf("hom_searches %d, backtrack dispatches %d, core_retractions %d; want 3, 3, 1", searches, backtrack, retractions)
	}
	if got := rec.Count(obs.CtrDispatchBacktrack); got != searches {
		t.Errorf("dispatch_backtrack %d, want %d", got, searches)
	}
}
