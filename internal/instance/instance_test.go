package instance

import (
	"strings"
	"testing"

	"extremalcq/internal/schema"
)

var binR = schema.MustNew(schema.Relation{Name: "R", Arity: 2})

var binRS = schema.MustNew(
	schema.Relation{Name: "R", Arity: 2},
	schema.Relation{Name: "S", Arity: 2},
)

var rsp = schema.MustNew(
	schema.Relation{Name: "R", Arity: 2},
	schema.Relation{Name: "S", Arity: 2},
	schema.Relation{Name: "P", Arity: 1},
)

func TestAddFactValidation(t *testing.T) {
	in := New(binR)
	if err := in.AddFact("R", "a", "b"); err != nil {
		t.Fatalf("AddFact: %v", err)
	}
	if err := in.AddFact("Q", "a"); err == nil {
		t.Error("unknown relation should fail")
	}
	if err := in.AddFact("R", "a"); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := in.AddFact("R", "", "b"); err == nil {
		t.Error("empty value should fail")
	}
	// duplicate is a no-op
	if err := in.AddFact("R", "a", "b"); err != nil {
		t.Fatalf("duplicate AddFact: %v", err)
	}
	if in.Size() != 1 {
		t.Errorf("Size = %d, want 1", in.Size())
	}
}

func TestDomAndIndexes(t *testing.T) {
	in := MustFromFacts(rsp,
		NewFact("R", "a", "b"),
		NewFact("S", "a", "c"),
		NewFact("P", "c"),
	)
	if in.DomSize() != 3 {
		t.Errorf("DomSize = %d, want 3", in.DomSize())
	}
	if !in.InDom("a") || in.InDom("z") {
		t.Error("InDom misreports")
	}
	if got := len(in.FactsWith("R", 0, "a")); got != 1 {
		t.Errorf("FactsWith(R,0,a) = %d", got)
	}
	if got := len(in.FactsWith("R", 1, "a")); got != 0 {
		t.Errorf("FactsWith(R,1,a) = %d", got)
	}
	if got := len(in.FactsContaining("a")); got != 2 {
		t.Errorf("FactsContaining(a) = %d", got)
	}
	// Index invalidation after mutation.
	if err := in.AddFact("R", "b", "a"); err != nil {
		t.Fatal(err)
	}
	if got := len(in.FactsContaining("a")); got != 3 {
		t.Errorf("FactsContaining(a) after add = %d", got)
	}
}

func TestCloneRestrictMap(t *testing.T) {
	in := MustFromFacts(rsp, NewFact("R", "a", "b"), NewFact("P", "b"))
	cl := in.Clone()
	if err := cl.AddFact("P", "a"); err != nil {
		t.Fatal(err)
	}
	if in.Size() != 2 || cl.Size() != 3 {
		t.Error("Clone is not independent")
	}
	r := in.Restrict(map[Value]bool{"b": true})
	if r.Size() != 1 || !r.Has(NewFact("P", "b")) {
		t.Errorf("Restrict wrong: %v", r)
	}
	m := in.MapValues(map[Value]Value{"a": "b"})
	if !m.Has(NewFact("R", "b", "b")) || m.Size() != 2 {
		t.Errorf("MapValues wrong: %v", m)
	}
	ren := in.Rename("x_")
	if !ren.Has(NewFact("R", "x_a", "x_b")) {
		t.Errorf("Rename wrong: %v", ren)
	}
}

func TestPointedBasics(t *testing.T) {
	in := MustFromFacts(rsp, NewFact("R", "a", "b"))
	p := NewPointed(in, "a", "b")
	if p.Arity() != 2 || !p.IsDataExample() || !p.HasUNP() {
		t.Error("pointed basics wrong")
	}
	q := NewPointed(in, "a", "a")
	if q.HasUNP() {
		t.Error("repeated tuple should fail UNP")
	}
	r := NewPointed(in, "a", "z")
	if r.IsDataExample() {
		t.Error("z is outside adom; not a data example")
	}
	et := q.EqualityType()
	if et[0] != 0 || et[1] != 0 {
		t.Errorf("EqualityType = %v", et)
	}
	if q.SameEqualityType(p) {
		t.Error("equality types should differ")
	}
}

// Example 2.1 / Figure 2: disjoint union of two R-cycles sharing the
// distinguished pair.
func TestDisjointUnionExample21(t *testing.T) {
	e1 := NewPointed(MustFromFacts(binR,
		NewFact("R", "a1", "a2"), NewFact("R", "a2", "a3"), NewFact("R", "a3", "a1")), "a1", "a2")
	e2 := NewPointed(MustFromFacts(binR,
		NewFact("R", "b2", "b3"), NewFact("R", "b3", "b4"), NewFact("R", "b4", "b1")), "b1", "b2")
	u, err := DisjointUnion(e1, e2)
	if err != nil {
		t.Fatalf("DisjointUnion: %v", err)
	}
	if u.Size() != 6 {
		t.Errorf("union has %d facts, want 6", u.Size())
	}
	if u.Arity() != 2 || !u.IsDataExample() || !u.HasUNP() {
		t.Error("union should be a 2-ary UNP data example")
	}
	// The distinguished elements are identified (Figure 2): d0 receives
	// the closing edge of both cycles (a3->a1 and b4->b1), d1 emits the
	// continuation edge of both (a2->a3 and b2->b3), and the shared edge
	// R(d0,d1) appears once.
	d0in := len(u.I.FactsWith("R", 1, u.Tuple[0]))
	d1out := len(u.I.FactsWith("R", 0, u.Tuple[1]))
	if d0in != 2 || d1out != 2 {
		t.Errorf("identification wrong: d0in=%d d1out=%d (%v)", d0in, d1out, u)
	}
	if !u.I.Has(NewFact("R", u.Tuple[0], u.Tuple[1])) {
		t.Error("shared edge R(d0,d1) missing")
	}
}

func TestDisjointUnionErrors(t *testing.T) {
	e1 := NewPointed(MustFromFacts(binR, NewFact("R", "a", "b")), "a", "a")
	e2 := NewPointed(MustFromFacts(binR, NewFact("R", "c", "d")), "c", "d")
	if _, err := DisjointUnion(e1, e2); err == nil {
		t.Error("non-UNP union should fail")
	}
	e3 := NewPointed(MustFromFacts(binR, NewFact("R", "a", "b")), "a")
	if _, err := DisjointUnion(e2, e3); err == nil {
		t.Error("arity mismatch should fail")
	}
	e4 := NewPointed(MustFromFacts(binRS, NewFact("S", "a", "b")), "a", "b")
	if _, err := DisjointUnion(e2, e4); err == nil {
		t.Error("schema mismatch should fail")
	}
	if _, err := DisjointUnionAll(nil); err == nil {
		t.Error("empty union should fail")
	}
}

// Example 2.5 / Figure 3: the direct product of the two Boolean examples.
func TestProductExample25(t *testing.T) {
	e1 := NewPointed(MustFromFacts(binRS,
		NewFact("R", "a", "b"), NewFact("S", "a", "a"), NewFact("S", "b", "b")))
	e2 := NewPointed(MustFromFacts(binRS,
		NewFact("S", "c", "d"), NewFact("R", "c", "c"), NewFact("R", "d", "d")))
	p, err := Product(e1, e2)
	if err != nil {
		t.Fatalf("Product: %v", err)
	}
	if p.I.DomSize() != 4 {
		t.Errorf("product domain = %d, want 4 (%v)", p.I.DomSize(), p)
	}
	// Figure 3: R-edges ⟨a,c⟩→⟨b,c⟩, ⟨a,d⟩→⟨b,d⟩; S-edges ⟨a,c⟩→⟨a,d⟩, ⟨b,c⟩→⟨b,d⟩.
	want := []Fact{
		NewFact("R", PairValue("a", "c"), PairValue("b", "c")),
		NewFact("R", PairValue("a", "d"), PairValue("b", "d")),
		NewFact("S", PairValue("a", "c"), PairValue("a", "d")),
		NewFact("S", PairValue("b", "c"), PairValue("b", "d")),
	}
	if p.Size() != len(want) {
		t.Errorf("product has %d facts, want %d: %v", p.Size(), len(want), p)
	}
	for _, f := range want {
		if !p.I.Has(f) {
			t.Errorf("missing fact %v", f)
		}
	}
}

// Example 2.6: the product of two data examples need not be a data
// example (distinguished element outside the active domain).
func TestProductExample26(t *testing.T) {
	sch := schema.MustNew(
		schema.Relation{Name: "P", Arity: 1},
		schema.Relation{Name: "Q", Arity: 1},
		schema.Relation{Name: "R", Arity: 2},
	)
	e1 := NewPointed(MustFromFacts(sch, NewFact("P", "a"), NewFact("R", "c", "d")), "a")
	e2 := NewPointed(MustFromFacts(sch, NewFact("Q", "b"), NewFact("R", "c", "d")), "b")
	p, err := Product(e1, e2)
	if err != nil {
		t.Fatalf("Product: %v", err)
	}
	if p.Size() != 1 || !p.I.Has(NewFact("R", PairValue("c", "c"), PairValue("d", "d"))) {
		t.Errorf("product facts wrong: %v", p)
	}
	if p.IsDataExample() {
		t.Error("product should NOT be a data example (Example 2.6)")
	}
}

func TestProductAllAndEmptyProduct(t *testing.T) {
	all := AllFactsInstance(binRS, 2)
	if all.Size() != 2 || all.I.DomSize() != 1 || all.Arity() != 2 {
		t.Errorf("AllFactsInstance wrong: %v", all)
	}
	got, err := ProductAll(binRS, 2, nil)
	if err != nil || !got.Equal(all) {
		t.Errorf("empty ProductAll = %v, %v", got, err)
	}
	e := NewPointed(MustFromFacts(binRS, NewFact("R", "a", "b")), "a", "b")
	single, err := ProductAll(binRS, 2, []Pointed{e})
	if err != nil || !single.Equal(e) {
		t.Errorf("singleton ProductAll = %v, %v", single, err)
	}
}

// Example 2.3: connected components of a pointed instance.
func TestComponentsExample23(t *testing.T) {
	sch := schema.MustNew(
		schema.Relation{Name: "R", Arity: 2},
		schema.Relation{Name: "S", Arity: 2},
		schema.Relation{Name: "P", Arity: 1},
	)
	e := NewPointed(MustFromFacts(sch,
		NewFact("R", "a", "b"),
		NewFact("S", "a", "c"),
		NewFact("S", "c", "b"),
		NewFact("P", "b"),
	), "a", "b")
	comps := Components(e)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[c.Size()]++
		if c.Arity() != 2 {
			t.Error("components must keep the full tuple")
		}
	}
	if sizes[1] != 2 || sizes[2] != 1 {
		t.Errorf("component sizes wrong: %v", sizes)
	}
	if !Connected(NewPointed(MustFromFacts(binR, NewFact("R", "x", "y")))) {
		t.Error("single fact should be connected")
	}
}

// Examples 2.9/2.11: the directed path is c-acyclic, the self-loop not.
func TestCAcyclicExamples(t *testing.T) {
	path := NewPointed(MustFromFacts(binR,
		NewFact("R", "a", "b"), NewFact("R", "b", "c"), NewFact("R", "c", "d")))
	if !CAcyclic(path) {
		t.Error("directed path of length 3 should be c-acyclic (Example 2.11)")
	}
	loop := NewPointed(MustFromFacts(binR, NewFact("R", "a", "a")))
	if CAcyclic(loop) {
		t.Error("self-loop without distinguished elements is not c-acyclic")
	}
	loopPointed := NewPointed(MustFromFacts(binR, NewFact("R", "a", "a")), "a")
	if !CAcyclic(loopPointed) {
		t.Error("self-loop through a distinguished element is c-acyclic (Example 3.33)")
	}
	// q3(x) :- R(x,y), R(y,y) from Example 2.13: not c-acyclic.
	q3 := NewPointed(MustFromFacts(binR, NewFact("R", "x", "y"), NewFact("R", "y", "y")), "x")
	if CAcyclic(q3) {
		t.Error("q3 from Example 2.13 should not be c-acyclic")
	}
	// Undirected 2-cycle through two facts on the same pair.
	two := NewPointed(MustFromFacts(binRS, NewFact("R", "x", "y"), NewFact("S", "x", "y")))
	if CAcyclic(two) {
		t.Error("two facts on the same pair form a cycle")
	}
}

func TestIncidenceDegree(t *testing.T) {
	e := NewPointed(MustFromFacts(binR,
		NewFact("R", "a", "b"), NewFact("R", "a", "c"), NewFact("R", "a", "a")))
	if d := IncidenceDegree(e); d != 4 {
		t.Errorf("degree = %d, want 4 (a occurs 4 times)", d)
	}
}

func TestParseFactsAndPointed(t *testing.T) {
	in, err := ParseFacts(rsp, "R(a,b). S(b,c) # comment\nP(c)")
	if err != nil {
		t.Fatalf("ParseFacts: %v", err)
	}
	if in.Size() != 3 {
		t.Errorf("parsed %d facts, want 3", in.Size())
	}
	p, err := ParsePointed(rsp, "R(a,b), P(b) @ a, b")
	if err != nil {
		t.Fatalf("ParsePointed: %v", err)
	}
	if p.Arity() != 2 || p.Tuple[0] != "a" || p.Tuple[1] != "b" {
		t.Errorf("tuple = %v", p.Tuple)
	}
	if _, err := ParseFacts(rsp, "R(a"); err == nil {
		t.Error("malformed fact should fail")
	}
	if _, err := ParseFacts(rsp, "R(a,)"); err == nil {
		t.Error("empty argument should fail")
	}
	if _, err := ParseFacts(rsp, "Q(a)"); err == nil {
		t.Error("unknown relation should fail")
	}
	if _, err := ParseFacts(binR, "R(⟨a,b⟩,c)"); err == nil {
		t.Error("reserved characters should be rejected by parse")
	}
}

func TestIsomorphic(t *testing.T) {
	a := NewPointed(MustFromFacts(binR,
		NewFact("R", "a", "b"), NewFact("R", "b", "c")), "a")
	b := NewPointed(MustFromFacts(binR,
		NewFact("R", "x", "y"), NewFact("R", "y", "z")), "x")
	if !Isomorphic(a, b) {
		t.Error("paths should be isomorphic")
	}
	c := NewPointed(MustFromFacts(binR,
		NewFact("R", "x", "y"), NewFact("R", "y", "z")), "y")
	if Isomorphic(a, c) {
		t.Error("different distinguished position: not isomorphic")
	}
	d := NewPointed(MustFromFacts(binR,
		NewFact("R", "x", "y"), NewFact("R", "x", "z")), "x")
	if Isomorphic(a, d) {
		t.Error("path vs out-star: not isomorphic")
	}
	// Cycle of length 3 in two namings.
	c1 := NewPointed(MustFromFacts(binR,
		NewFact("R", "1", "2"), NewFact("R", "2", "3"), NewFact("R", "3", "1")))
	c2 := NewPointed(MustFromFacts(binR,
		NewFact("R", "p", "q"), NewFact("R", "q", "r"), NewFact("R", "r", "p")))
	if !Isomorphic(c1, c2) {
		t.Error("3-cycles should be isomorphic")
	}
}

func TestStringRendering(t *testing.T) {
	in := MustFromFacts(binR, NewFact("R", "a", "b"))
	p := NewPointed(in, "a")
	s := p.String()
	if !strings.Contains(s, "R(a,b)") || !strings.Contains(s, "⟨a⟩") {
		t.Errorf("String = %q", s)
	}
	if f := NewFact("R", "a", "b"); f.String() != "R(a,b)" {
		t.Errorf("Fact.String = %q", f.String())
	}
}

func TestCheckValue(t *testing.T) {
	if err := CheckValue("ok_value"); err != nil {
		t.Errorf("CheckValue(ok): %v", err)
	}
	for _, bad := range []Value{"", "a,b", "⟨x", "y⟩"} {
		if err := CheckValue(bad); err == nil {
			t.Errorf("CheckValue(%q) should fail", bad)
		}
	}
}

func TestSumSizes(t *testing.T) {
	e := NewPointed(MustFromFacts(binR, NewFact("R", "a", "b")))
	if n := SumSizes([]Pointed{e, e}); n != 2 {
		t.Errorf("SumSizes = %d", n)
	}
}
