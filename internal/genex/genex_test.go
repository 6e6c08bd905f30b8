package genex

import (
	"math"
	"math/rand"
	"testing"

	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
)

func TestPrimes(t *testing.T) {
	got := Primes(5)
	want := []int{2, 3, 5, 7, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Primes(5) = %v", got)
		}
	}
}

func TestFamilies(t *testing.T) {
	if genexSize := Clique(4).Size(); genexSize != 12 {
		t.Errorf("K4 has %d facts, want 12", genexSize)
	}
	if DirectedPath(3).Size() != 3 || DirectedCycle(5).Size() != 5 {
		t.Error("path/cycle sizes wrong")
	}
	if TransitiveTournament(4).Size() != 6 {
		t.Error("T4 has 6 edges")
	}
	pos, neg := PrimeCycleFamily(3)
	if len(pos) != 2 || len(neg) != 1 {
		t.Errorf("prime family shape wrong: %d/%d", len(pos), len(neg))
	}
}

// The product of the Theorem 3.41 positives must be a directed labeled
// path of length 2^n (checked for n=2: 4 nodes, successor chain).
func TestBitStringProductIsPath(t *testing.T) {
	sch, pos, _ := BitStringFamily(2)
	prod, err := instance.ProductAll(sch, 0, pos)
	if err != nil {
		t.Fatal(err)
	}
	if prod.I.DomSize() != 4 {
		t.Fatalf("product domain = %d, want 4", prod.I.DomSize())
	}
	// Exactly 3 successor facts across the R_j relations.
	edges := 0
	for _, f := range prod.I.Facts() {
		if len(f.Args) == 2 {
			edges++
		}
	}
	if edges != 3 {
		t.Errorf("product has %d binary facts, want 3 (a path)", edges)
	}
}

func TestBasisMembersShape(t *testing.T) {
	ms := BasisMembers(1)
	if len(ms) != 4 {
		t.Fatalf("2^(2^1) = 4 members, got %d", len(ms))
	}
	for i, a := range ms {
		for j, b := range ms {
			if i < j && a.Equal(b) {
				t.Error("members must be pairwise distinct")
			}
		}
	}
}

func TestLRAFamily(t *testing.T) {
	d2 := LRACycle(2)
	if d2.Size() != 5 { // 2 R + 2 L + 1 A
		t.Errorf("D_2 has %d facts, want 5", d2.Size())
	}
	i := LRAInstance()
	if i.DomSize() != 4 {
		t.Errorf("Figure 5 instance has %d values, want 4", i.DomSize())
	}
	pos, neg := DoubleExpTreeFamily(2)
	if len(pos) != 2 || len(neg) != 2 {
		t.Errorf("family shape wrong: %d/%d", len(pos), len(neg))
	}
}

// The enumerator produces every small instance shape at least once.
func TestEnumerateInstances(t *testing.T) {
	count := 0
	foundLoop, foundEdge, foundPath := false, false, false
	EnumerateInstances(SchemaR(), 2, 3, func(in *instance.Instance) bool {
		count++
		loop := instance.MustFromFacts(SchemaR(), instance.NewFact("R", "v0", "v0"))
		edge := instance.MustFromFacts(SchemaR(), instance.NewFact("R", "v0", "v1"))
		if in.Equal(loop) {
			foundLoop = true
		}
		if in.Equal(edge) {
			foundEdge = true
		}
		if in.Size() == 2 {
			p := instance.NewPointed(in)
			path := instance.NewPointed(instance.MustFromFacts(SchemaR(),
				instance.NewFact("R", "x", "y"), instance.NewFact("R", "y", "z")))
			if hom.Equivalent(p, path) && instance.Isomorphic(p, path) {
				foundPath = true
			}
		}
		return true
	})
	if !foundLoop || !foundEdge || !foundPath {
		t.Errorf("enumeration misses shapes: loop=%v edge=%v path=%v (of %d)", foundLoop, foundEdge, foundPath, count)
	}
	// Early stop works.
	n := 0
	EnumerateInstances(SchemaR(), 2, 3, func(*instance.Instance) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop failed: %d", n)
	}
}

func TestEnumerateDataExamples(t *testing.T) {
	seenArity := true
	n := 0
	EnumerateDataExamples(SchemaR(), 1, 2, 3, func(p instance.Pointed) bool {
		n++
		if p.Arity() != 1 || !p.IsDataExample() {
			seenArity = false
		}
		return n < 50
	})
	if !seenArity || n == 0 {
		t.Error("data example enumeration wrong")
	}
}

func TestRandomGenerators(t *testing.T) {
	// Smoke: random instances respect bounds.
	rng := newRand()
	in := RandomInstance(rng, SchemaR(), 3, 5)
	if in.DomSize() > 3 {
		t.Error("domain bound violated")
	}
	p := RandomPointed(rng, SchemaR(), 3, 5, 2)
	if p.Arity() != 2 {
		t.Error("arity wrong")
	}
}

func newRand() *rand.Rand { return rand.New(rand.NewSource(71)) }

// A non-positive bound is the empty candidate space, never a panic.
func TestEnumerateNonPositiveBounds(t *testing.T) {
	for _, b := range [][2]int{{-1, 3}, {2, -1}, {0, 3}, {2, 0}} {
		n := 0
		EnumerateDataExamples(SchemaR(), 1, b[0], b[1], func(instance.Pointed) bool {
			n++
			return true
		})
		if n != 0 {
			t.Errorf("bounds %d/%d enumerated %d candidates, want none", b[0], b[1], n)
		}
	}
}

// TestTableSize: the candidate table EnumerateInstancesCtx builds holds
// maxVars^arity facts per relation, none for a non-positive bound, and
// a size past math.MaxInt saturates instead of wrapping around.
func TestTableSize(t *testing.T) {
	rpq := schema.MustNew(schema.Relation{Name: "R", Arity: 2}, schema.Relation{Name: "P", Arity: 1}, schema.Relation{Name: "Q", Arity: 1})
	huge := schema.MustNew(schema.Relation{Name: "R", Arity: math.MaxInt})
	for _, c := range []struct {
		sch         *schema.Schema
		facts, vars int
		want        int
	}{
		{SchemaR(), 3, 4, 16},
		{rpq, 6, 8, 80},
		{SchemaR(), 1, 65536, 1 << 32},
		{SchemaR(), 0, 8, 0},
		{SchemaR(), 3, -1, 0},
		{SchemaR(), 1, 1 << 40, math.MaxInt},
		{rpq, 1, math.MaxInt, math.MaxInt},
		{huge, 1, 1, 1},
		{huge, 1, 2, math.MaxInt},
	} {
		if got := TableSize(c.sch, c.facts, c.vars); got != c.want {
			t.Errorf("TableSize(%v, %d, %d) = %d, want %d", c.sch.Relations(), c.facts, c.vars, got, c.want)
		}
	}
	// The table it sizes is the one the enumeration builds: every fact
	// over two values appears in some candidate.
	seen := map[string]bool{}
	EnumerateInstances(SchemaR(), 4, 2, func(in *instance.Instance) bool {
		for _, f := range in.Facts() {
			seen[f.Key()] = true
		}
		return true
	})
	if want := TableSize(SchemaR(), 4, 2); len(seen) != want {
		t.Errorf("candidates over 2 values use %d distinct facts, TableSize says %d", len(seen), want)
	}
}

// TestMycielski checks the Mycielski graphs' sizes and the two facts
// the hard-search pins rest on: M_k maps into K_k but not into
// K_(k−1), and it holds no triangle.
func TestMycielski(t *testing.T) {
	for k, facts := range map[int]int{2: 2, 3: 10, 4: 40, 5: 142} {
		m := Mycielski(k)
		if m.Size() != facts {
			t.Errorf("M%d has %d facts, want %d", k, m.Size(), facts)
		}
		if k <= 4 && (!hom.Exists(m, Clique(k)) || hom.Exists(m, Clique(k-1))) {
			t.Errorf("M%d must map into K%d and not into K%d", k, k, k-1)
		}
		if hom.Exists(Clique(3), m) {
			t.Errorf("M%d holds a triangle", k)
		}
	}
}
