package hom

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
)

var binR = genex.SchemaR()

func pointed(t *testing.T, sch *schema.Schema, s string) instance.Pointed {
	t.Helper()
	p, err := instance.ParsePointed(sch, s)
	if err != nil {
		t.Fatalf("ParsePointed(%q): %v", s, err)
	}
	return p
}

func TestExistsBasic(t *testing.T) {
	p2 := pointed(t, binR, "R(a,b). R(b,c)")
	edge := pointed(t, binR, "R(x,y)")
	loop := pointed(t, binR, "R(u,u)")

	if !Exists(p2, loop) {
		t.Error("path should map to loop")
	}
	if Exists(p2, edge) {
		t.Error("2-edge path should not map to a single edge")
	}
	if !Exists(edge, p2) {
		t.Error("edge maps to path")
	}
	if !Exists(loop, loop) || Exists(loop, p2) {
		t.Error("loop mapping wrong")
	}
}

func TestFindReturnsValidHom(t *testing.T) {
	from := pointed(t, binR, "R(a,b). R(b,c). R(c,a)")
	to := genex.DirectedCycle(3)
	h, ok := Find(from, to)
	if !ok {
		t.Fatal("3-cycle should map to 3-cycle")
	}
	for _, f := range from.I.Facts() {
		if !to.I.Has(f.Map(map[instance.Value]instance.Value(h))) {
			t.Errorf("fact %v not preserved under %v", f, h)
		}
	}
}

func TestDistinguishedElements(t *testing.T) {
	// Hom must map tuple to tuple pointwise.
	from := pointed(t, binR, "R(a,b) @ a")
	toGood := pointed(t, binR, "R(x,y) @ x")
	toBad := pointed(t, binR, "R(x,y) @ y")
	if !Exists(from, toGood) {
		t.Error("rooted edge should map to rooted edge")
	}
	if Exists(from, toBad) {
		t.Error("root must map to root; R(y,?) does not exist")
	}
}

func TestEqualityTypes(t *testing.T) {
	// Repeated source tuple values need equal targets.
	from := pointed(t, binR, "R(a,a) @ a, a")
	to1 := pointed(t, binR, "R(x,x) @ x, x")
	to2 := pointed(t, binR, "R(x,y). R(y,x) @ x, y")
	if !Exists(from, to1) {
		t.Error("loop to loop with repeated tuple should map")
	}
	if Exists(from, to2) {
		t.Error("repeated source tuple cannot split across x,y")
	}
	// Nor across x,y when one of the images carries a loop, whether the
	// repeated value occurs in a fact or not.
	to3 := pointed(t, binR, "R(x,y). R(y,y) @ x, y")
	if Exists(from, to3) {
		t.Error("repeated source tuple cannot split across x,y even where y has a loop")
	}
	iso := instance.NewPointed(instance.MustFromFacts(binR, instance.NewFact("R", "c", "d")), "z", "z")
	if Exists(iso, to3) {
		t.Error("repeated isolated tuple value cannot split across x,y")
	}
}

// TestEqualityTypesPastPosition255 is the regression test for equality
// types on wide relations: a fact's repeated positions are found by
// position, and a position past 255 once wrapped to a smaller one. The
// source is a triangle of R/arity facts R(x_i, x_{i+1}, …, x_{i+1}, z_i)
// whose last argument is a variable of its own; the target is a renamed
// copy, so the renaming is a homomorphism.
func TestEqualityTypesPastPosition255(t *testing.T) {
	for _, arity := range []int{256, 257, 300} {
		sch := schema.MustNew(schema.Relation{Name: "R", Arity: arity})
		from := instance.New(sch)
		for i := 0; i < 3; i++ {
			args := make([]instance.Value, arity)
			args[0] = instance.Value(fmt.Sprintf("x%d", i))
			for j := 1; j < arity-1; j++ {
				args[j] = instance.Value(fmt.Sprintf("x%d", (i+1)%3))
			}
			args[arity-1] = instance.Value(fmt.Sprintf("z%d", i))
			if err := from.AddFact("R", args...); err != nil {
				t.Fatal(err)
			}
		}
		to := from.Rename("c.")
		renaming := make(Assignment)
		for _, v := range from.Dom() {
			renaming[v] = "c." + v
		}
		if !validHom(from, to, renaming) {
			t.Fatalf("arity %d: the renaming is not a homomorphism", arity)
		}
		src, dst := instance.NewPointed(from), instance.NewPointed(to)
		for _, mode := range []DispatchMode{DispatchAuto, DispatchBacktrack} {
			h, ok := FindCtx(WithDispatchMode(context.Background(), mode), src, dst)
			if !ok {
				t.Fatalf("arity %d, dispatch %d: no homomorphism found, yet the renaming is one", arity, mode)
			}
			checkWitness(t, src, dst, h)
		}
		if !ArcConsistent(src, dst) {
			t.Fatalf("arity %d: arc consistency refuted a source that maps", arity)
		}
	}
}

func TestIsolatedDistinguishedElement(t *testing.T) {
	// Source distinguished element outside adom: maps freely to the
	// target's distinguished element, even if that is outside adom(to).
	from := instance.NewPointed(instance.MustFromFacts(binR, instance.NewFact("R", "c", "d")), "z")
	to := instance.NewPointed(instance.MustFromFacts(binR, instance.NewFact("R", "u", "v")), "w")
	h, ok := Find(from, to)
	if !ok {
		t.Fatal("hom should exist")
	}
	if h["z"] != "w" {
		t.Errorf("isolated distinguished element mapped to %v, want w", h["z"])
	}
	// But a distinguished element inside adom cannot map to one outside
	// the target's adom.
	from2 := pointed(t, binR, "R(a,b) @ a")
	if Exists(from2, to) {
		t.Error("a occurs in a fact; its image w occurs in none")
	}
}

func TestSchemaAndArityMismatch(t *testing.T) {
	other := schema.MustNew(schema.Relation{Name: "S", Arity: 2})
	a := pointed(t, binR, "R(a,b)")
	b := pointed(t, other, "S(a,b)")
	if Exists(a, b) {
		t.Error("different schemas should not be comparable")
	}
	c := pointed(t, binR, "R(a,b) @ a")
	if Exists(a, c) || Exists(c, a) {
		t.Error("different arities should not be comparable")
	}
}

func TestThreeColoring(t *testing.T) {
	// K3 maps to K3; K4 does not map to K3 (not 3-colorable); C5 does not
	// map to K2-as-2-cycle but maps to K3.
	k3, k4 := genex.Clique(3), genex.Clique(4)
	if !Exists(k3, k3) {
		t.Error("K3 -> K3")
	}
	if Exists(k4, k3) {
		t.Error("K4 should not map to K3")
	}
	c5 := genex.DirectedCycle(5)
	if !Exists(c5, k3) {
		t.Error("C5 should 3-color")
	}
	c2 := genex.DirectedCycle(2)
	if Exists(c5, c2) {
		t.Error("odd cycle should not 2-color")
	}
	c10 := genex.DirectedCycle(10)
	if !Exists(c10, c2) || !Exists(c10, c5) {
		t.Error("C10 should map to C2 and C5 (divisor cycles)")
	}
	if Exists(c10, genex.DirectedCycle(4)) {
		t.Error("C10 should not map to C4 (4 does not divide 10)")
	}
}

// Gallai–Hasse–Roy–Vitaver sanity: path of length n maps to a digraph iff
// the digraph has a path of length n... here we just check paths into
// transitive tournaments (Example 2.14): P_n -> T_n fails, P_{n-1} -> T_n
// succeeds.
func TestPathsIntoTournaments(t *testing.T) {
	for n := 2; n <= 5; n++ {
		tn := genex.TransitiveTournament(n)
		if Exists(genex.DirectedPath(n), tn) {
			t.Errorf("P_%d should not map to T_%d", n, n)
		}
		if !Exists(genex.DirectedPath(n-1), tn) {
			t.Errorf("P_%d should map to T_%d", n-1, n)
		}
	}
}

func TestFindAll(t *testing.T) {
	edge := pointed(t, binR, "R(a,b)")
	sq := genex.DirectedCycle(4)
	count := 0
	FindAll(edge, sq, func(h Assignment) bool {
		count++
		return true
	})
	if count != 4 {
		t.Errorf("edge has %d homs into C4, want 4", count)
	}
	// Early termination.
	count = 0
	FindAll(edge, sq, func(h Assignment) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop failed: %d", count)
	}
}

func TestEquivalentAndStrictlyBelow(t *testing.T) {
	c3 := genex.DirectedCycle(3)
	c6 := genex.DirectedCycle(6)
	c2 := genex.DirectedCycle(2)
	if !StrictlyBelow(c6, c3) {
		t.Error("C6 -> C3 strictly (C3 has no hom to C6)")
	}
	if !Incomparable(c2, c3) {
		t.Error("C2 and C3 should be incomparable")
	}
	if !Equivalent(c3, c3) {
		t.Error("C3 equivalent to itself")
	}
}

func TestCore(t *testing.T) {
	// Two disjoint edges: core is a single edge.
	two := pointed(t, binR, "R(a,b). R(c,d)")
	c := Core(two)
	if c.I.Size() != 1 {
		t.Errorf("core of two disjoint edges has %d facts, want 1", c.I.Size())
	}
	if !Equivalent(two, c) {
		t.Error("core must be hom-equivalent")
	}
	// Directed cycles are cores.
	c5 := genex.DirectedCycle(5)
	if got := Core(c5); got.I.DomSize() != 5 {
		t.Errorf("C5 is a core; got domain %d", got.I.DomSize())
	}
	if !IsCore(c5) {
		t.Error("IsCore(C5) should hold")
	}
	// Path of length 2 is a core.
	p2 := pointed(t, binR, "R(a,b). R(b,c)")
	if !IsCore(p2) {
		t.Error("P2 is a core")
	}
	// Distinguished elements are never dropped.
	pt := pointed(t, binR, "R(a,b). R(c,d) @ c")
	cpt := Core(pt)
	if !cpt.I.InDom("c") {
		t.Error("distinguished element c must survive in the core")
	}
	if !Equivalent(pt, cpt) {
		t.Error("pointed core must be hom-equivalent")
	}
	// Loop plus pendant edge: core is the loop.
	lp := pointed(t, binR, "R(a,a). R(a,b)")
	clp := Core(lp)
	if clp.I.Size() != 1 || !clp.I.Has(instance.NewFact("R", "a", "a")) {
		t.Errorf("core of loop+pendant = %v, want just the loop", clp)
	}
}

func TestArcConsistentSemantic(t *testing.T) {
	// AC is exact on c-acyclic sources.
	p3 := genex.DirectedPath(3)
	t3 := genex.TransitiveTournament(3)
	if ArcConsistent(p3, t3) {
		t.Error("AC(P3 -> T3) should fail: P3 does not map to T3 and P3 is a tree")
	}
	if !ArcConsistent(genex.DirectedPath(2), t3) {
		t.Error("AC(P2 -> T3) should succeed")
	}
	// AC as the Prop 4.7 implication test: every tree that maps into C3
	// maps into C2, so AC(C3 -> C2) succeeds even though C3 has no hom to
	// C2.
	c3, c2 := genex.DirectedCycle(3), genex.DirectedCycle(2)
	if Exists(c3, c2) {
		t.Error("C3 should not map to C2")
	}
	if !ArcConsistent(c3, c2) {
		t.Error("AC(C3 -> C2) should succeed (trees below C3 are below C2)")
	}
}

// TestArcConsistentExactOnCAcyclic checks the exactness ArcConsistent
// documents: on c-acyclic sources arc consistency decides homomorphism
// existence. Pairs are random over {R/2, P/1, T/3}, pointed arities
// 0-2; sources that are not c-acyclic are skipped.
func TestArcConsistentExactOnCAcyclic(t *testing.T) {
	sch := schema.MustNew(
		schema.Relation{Name: "R", Arity: 2},
		schema.Relation{Name: "P", Arity: 1},
		schema.Relation{Name: "T", Arity: 3},
	)
	rng := rand.New(rand.NewSource(16))
	checked := 0
	for i := 0; i < 10000; i++ {
		k := rng.Intn(3)
		from := genex.RandomPointed(rng, sch, 2+rng.Intn(4), 1+rng.Intn(6), k)
		to := genex.RandomPointed(rng, sch, 2+rng.Intn(3), 1+rng.Intn(9), k)
		if !instance.CAcyclic(from) {
			continue
		}
		checked++
		if ac, ex := ArcConsistent(from, to), Exists(from, to); ac != ex {
			t.Fatalf("c-acyclic %v -> %v: ArcConsistent=%v, Exists=%v", from, to, ac, ex)
		}
	}
	if checked < 2000 {
		t.Fatalf("generator drew only %d c-acyclic sources", checked)
	}
}

// Property: the direct product is a greatest lower bound (Prop 2.7/2.8).
func TestProductGLBProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		e1 := genex.RandomPointed(rng, binR, 3, 4, 1)
		e2 := genex.RandomPointed(rng, binR, 3, 4, 1)
		x := genex.RandomPointed(rng, binR, 2, 3, 1)
		prod, err := instance.Product(e1, e2)
		if err != nil {
			t.Fatal(err)
		}
		want := Exists(x, e1) && Exists(x, e2)
		got := Exists(x, prod)
		if got != want {
			t.Fatalf("GLB violated:\n x=%v\n e1=%v\n e2=%v\n prod=%v\n got=%v want=%v",
				x, e1, e2, prod, got, want)
		}
	}
}

// Property: the disjoint union is a least upper bound for UNP examples
// (Prop 2.2/2.4).
func TestUnionLUBProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		e1 := genex.RandomPointed(rng, binR, 3, 4, 1)
		e2 := genex.RandomPointed(rng, binR, 3, 4, 1)
		y := genex.RandomPointed(rng, binR, 3, 5, 1)
		u, err := instance.DisjointUnion(e1, e2)
		if err != nil {
			t.Fatal(err)
		}
		want := Exists(e1, y) && Exists(e2, y)
		got := Exists(u, y)
		if got != want {
			t.Fatalf("LUB violated:\n e1=%v\n e2=%v\n u=%v\n y=%v\n got=%v want=%v",
				e1, e2, u, y, got, want)
		}
	}
}

// Property: Core is idempotent and hom-equivalent.
func TestCoreProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		p := genex.RandomPointed(rng, binR, 4, 6, 1)
		c := Core(p)
		if !Equivalent(p, c) {
			t.Fatalf("core not equivalent: %v vs %v", p, c)
		}
		cc := Core(c)
		if cc.I.DomSize() != c.I.DomSize() || cc.I.Size() != c.I.Size() {
			t.Fatalf("core not idempotent: %v vs %v", c, cc)
		}
	}
}

// Property: hom existence is reflexive and transitive on random samples.
func TestPreorderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var pool []instance.Pointed
	for i := 0; i < 8; i++ {
		pool = append(pool, genex.RandomPointed(rng, binR, 3, 4, 0))
	}
	for _, p := range pool {
		if !Exists(p, p) {
			t.Fatalf("hom not reflexive on %v", p)
		}
	}
	for _, a := range pool {
		for _, b := range pool {
			for _, c := range pool {
				if Exists(a, b) && Exists(b, c) && !Exists(a, c) {
					t.Fatalf("hom not transitive: %v -> %v -> %v", a, b, c)
				}
			}
		}
	}
}

func TestExistsToAnyAll(t *testing.T) {
	edge := pointed(t, binR, "R(a,b)")
	loop := pointed(t, binR, "R(u,u)")
	p2 := pointed(t, binR, "R(a,b). R(b,c)")
	if !ExistsToAny(p2, []instance.Pointed{edge, loop}) {
		t.Error("p2 maps to loop")
	}
	if ExistsToAll(p2, []instance.Pointed{edge, loop}) {
		t.Error("p2 does not map to edge")
	}
	if ExistsToAny(p2, nil) {
		t.Error("nothing maps into the empty set")
	}
	if !ExistsToAll(p2, nil) {
		t.Error("vacuous ExistsToAll should hold")
	}
}
