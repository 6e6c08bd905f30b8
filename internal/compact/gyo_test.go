package compact

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
	"extremalcq/internal/solve"
)

// edgeInstance builds a source whose query hypergraph has the given
// edges: edge i is one fact over its values, of relation rel(i, arity).
func edgeInstance(sets [][]string, rel func(i, arity int) string) *instance.Instance {
	var rels []schema.Relation
	seen := make(map[string]bool)
	for i, set := range sets {
		if name := rel(i, len(set)); !seen[name] {
			seen[name] = true
			rels = append(rels, schema.Relation{Name: name, Arity: len(set)})
		}
	}
	in := instance.New(schema.MustNew(rels...))
	for i, set := range sets {
		args := make([]instance.Value, len(set))
		for j, v := range set {
			args[j] = instance.Value(v)
		}
		if err := in.AddFact(rel(i, len(set)), args...); err != nil {
			panic(err)
		}
	}
	return in
}

// perEdge names one relation per edge, so equal edges stay two facts.
func perEdge(i, _ int) string { return fmt.Sprintf("e%02d", i) }

// validateForest is the oracle of the GYO tests: parent sanity (in
// range, no self-loops), an order that is a permutation placing every
// fact before its parent, parent chains that climb the order, a
// preorder that lists every fact after its parent, shared positions
// that pair each distinct variable the parent holds with its position
// there and fresh positions for the others, and the
// running-intersection property: for every variable, the facts holding
// it form one connected subtree.
func validateForest(f *Form, fo *joinForest) error {
	n := len(f.facts)
	if len(fo.parent) != n || len(fo.order) != n || len(fo.pre) != n {
		return fmt.Errorf("forest over %d facts has %d parents, %d order and %d preorder entries",
			n, len(fo.parent), len(fo.order), len(fo.pre))
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, e := range fo.order {
		if int(e) >= n {
			return fmt.Errorf("order entry %d out of range", e)
		}
		if pos[e] >= 0 {
			return fmt.Errorf("fact %d appears twice in order", e)
		}
		pos[e] = i
	}
	for e, p := range fo.parent {
		if int(p) == e || p < -1 || int(p) >= n {
			return fmt.Errorf("fact %d has invalid parent %d", e, p)
		}
		if p >= 0 && pos[e] >= pos[p] {
			return fmt.Errorf("fact %d removed after its parent %d", e, p)
		}
	}
	for e := range fo.parent {
		last := pos[e]
		for p := fo.parent[e]; p >= 0; p = fo.parent[p] {
			if pos[p] <= last {
				return fmt.Errorf("parent chain from fact %d does not climb the removal order", e)
			}
			last = pos[p]
		}
	}
	seen := make([]bool, n)
	for _, e := range fo.pre {
		if int(e) >= n || seen[e] {
			return fmt.Errorf("preorder entry %d out of range or repeated", e)
		}
		if p := fo.parent[e]; p >= 0 && !seen[p] {
			return fmt.Errorf("preorder lists fact %d before its parent %d", e, p)
		}
		seen[e] = true
	}
	holds := func(e int, v uint32) int {
		for k, a := range f.facts[e].args {
			if a == v {
				return k
			}
		}
		return -1
	}
	for e := range f.facts {
		fe := &f.facts[e]
		var cpos, ppos, fresh []uint32
		for j, v := range fe.args {
			if fe.firstPos[j] != uint32(j) {
				continue
			}
			k := -1
			if p := fo.parent[e]; p >= 0 {
				k = holds(int(p), v)
			}
			if k >= 0 {
				cpos, ppos = append(cpos, uint32(j)), append(ppos, uint32(k))
			} else {
				fresh = append(fresh, uint32(j))
			}
		}
		sh := fo.sharedOff[e]
		got := fmt.Sprint(fo.cpos[sh:fo.sharedOff[e+1]], fo.ppos[sh:fo.sharedOff[e+1]], fo.fresh[fo.freshOff[e]:fo.freshOff[e+1]])
		if want := fmt.Sprint(cpos, ppos, fresh); got != want {
			return fmt.Errorf("fact %d has shared and fresh positions %s, want %s", e, got, want)
		}
	}
	// Running intersection: the facts holding v are connected in the
	// forest iff exactly one of them has its parent outside the set.
	for v := range f.vals {
		exits := 0
		for _, e := range f.varFacts[f.varOff[v]:f.varOff[v+1]] {
			if p := fo.parent[e]; p < 0 || holds(int(p), uint32(v)) < 0 {
				exits++
			}
		}
		if exits != 1 {
			return fmt.Errorf("variable %q spans %d disconnected forest regions", f.vals[v], exits)
		}
	}
	return nil
}

// probe runs GYO on the instance's form and validates the forest
// whenever one is produced.
func probe(t *testing.T, in *instance.Instance) (*Form, *joinForest) {
	t.Helper()
	acyclic := Acyclic(context.Background(), in)
	f := compile(in)
	fo := f.forest.Load()
	if fo.acyclic != acyclic {
		t.Fatalf("Acyclic reads %v, the memoized forest %v", acyclic, fo.acyclic)
	}
	if acyclic {
		if err := validateForest(f, fo); err != nil {
			t.Fatalf("forest fails validation: %v", err)
		}
	} else if fo.parent != nil || fo.pre != nil {
		t.Fatal("a cyclic verdict kept a forest")
	}
	return f, fo
}

func TestGYOAcyclic(t *testing.T) {
	cases := map[string][][]string{
		"empty":        {},
		"single":       {{"a", "b"}},
		"path":         {{"a", "b"}, {"b", "c"}, {"c", "d"}},
		"star":         {{"a", "b"}, {"a", "c"}, {"a", "d"}},
		"twoLoops":     {{"a"}, {"a"}}, // equal unary edges
		"disconnected": {{"a", "b"}, {"c", "d"}},
		"covered triangle": {
			{"a", "b"}, {"b", "c"}, {"a", "c"}, {"a", "b", "c"},
		},
		"4-ary chain": {
			{"x1", "y1"}, {"x1", "x2", "y1", "y2"}, {"x2", "x3", "y2", "y3"}, {"x3", "y3"},
		},
	}
	for name, sets := range cases {
		if _, fo := probe(t, edgeInstance(sets, perEdge)); !fo.acyclic {
			t.Errorf("%s: expected acyclic", name)
		}
	}
}

func TestGYOCyclic(t *testing.T) {
	cases := map[string][][]string{
		"triangle": {{"a", "b"}, {"b", "c"}, {"a", "c"}},
		"square":   {{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "d"}},
		"triangle plus pendant": {
			{"a", "b"}, {"b", "c"}, {"a", "c"}, {"c", "d"},
		},
	}
	for name, sets := range cases {
		if _, fo := probe(t, edgeInstance(sets, perEdge)); fo.acyclic {
			t.Errorf("%s: expected cyclic", name)
		}
	}
}

// TestGYODisconnectedForest checks that components become separate
// trees and every fact still lands in the forest.
func TestGYODisconnectedForest(t *testing.T) {
	_, fo := probe(t, edgeInstance([][]string{
		{"a", "b"}, {"b", "c"}, // component 1
		{"p", "q"}, {"q", "r"}, // component 2
		{"z"}, // component 3
	}, perEdge))
	if !fo.acyclic {
		t.Fatal("expected acyclic")
	}
	if got := roots(fo); got != 3 {
		t.Fatalf("got %d roots, want 3 (one per component)", got)
	}
}

func roots(fo *joinForest) int {
	n := 0
	for _, p := range fo.parent {
		if p < 0 {
			n++
		}
	}
	return n
}

// TestGYOOnInstances checks the instance side: edges align with facts
// and repeated arguments collapse into one variable.
func TestGYOOnInstances(t *testing.T) {
	f, fo := probe(t, genex.DirectedPath(3).I)
	if len(f.facts) != 3 || !fo.acyclic || roots(fo) != 1 {
		t.Fatalf("directed path: %d facts, acyclic=%v, %d roots; want 3, true, 1", len(f.facts), fo.acyclic, roots(fo))
	}
	if _, fo := probe(t, genex.DirectedCycle(3).I); fo.acyclic {
		t.Fatal("triangle must be cyclic")
	}
	// Self-loop fact R(a,a): a single-variable edge, trivially acyclic.
	f, fo = probe(t, genex.DirectedCycle(1).I)
	if !fo.acyclic {
		t.Fatal("self-loop must be acyclic")
	}
	if got := fo.freshOff[1] - fo.freshOff[0]; got != 1 {
		t.Fatalf("R(a,a) has %d distinct variables, want 1", got)
	}
}

// TestValidateRejectsCorruptForests checks the oracle itself:
// hand-built violations of each invariant must be caught.
func TestValidateRejectsCorruptForests(t *testing.T) {
	f, good := probe(t, edgeInstance([][]string{{"a", "b"}, {"b", "c"}}, perEdge))
	if !good.acyclic {
		t.Fatal("setup: expected acyclic")
	}
	corrupt := func(parent []int32, order, pre []uint32) *joinForest {
		fo := *good
		fo.parent, fo.order, fo.pre = parent, order, pre
		return &fo
	}
	cases := map[string]*joinForest{
		"length mismatch":     corrupt([]int32{-1}, []uint32{0, 1}, good.pre),
		"self parent":         corrupt([]int32{-1, 1}, []uint32{1, 0}, []uint32{0, 1}),
		"order repeats":       corrupt(good.parent, []uint32{0, 0}, good.pre),
		"parent before child": corrupt([]int32{1, -1}, []uint32{1, 0}, []uint32{1, 0}),
		"preorder child first": corrupt(good.parent, good.order,
			[]uint32{good.order[0], good.order[1]}),
		// Both facts hold b but neither is the other's parent.
		"disconnected shared variable": corrupt([]int32{-1, -1}, []uint32{0, 1}, []uint32{0, 1}),
	}
	for name, fo := range cases {
		if err := validateForest(f, fo); err == nil {
			t.Errorf("%s: validateForest accepted a corrupt forest", name)
		}
	}
}

// TestAcyclicMemoizedPerInstance checks that the verdict lives on the
// instance's compiled form: a cyclic source keeps the verdict alone, a
// repeat probe reads it without running GYO again, an acyclic source
// keeps its forest, and AddFact drops the form with its verdict.
func TestAcyclicMemoizedPerInstance(t *testing.T) {
	ctx := context.Background()
	cycle := genex.ParityCycle(4)
	if Acyclic(ctx, cycle.I) {
		t.Fatal("ParityCycle(4) reads acyclic")
	}
	fo := compile(cycle.I).forest.Load()
	if fo == nil || fo.acyclic || fo.parent != nil {
		t.Fatalf("cyclic source's form holds %+v, want the verdict alone", fo)
	}
	// GYO checks its (canceled) context; a memoized verdict does not.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	err := func() (err error) {
		defer solve.Catch(&err)
		if Acyclic(canceled, cycle.I) {
			t.Error("repeat probe of the cyclic source reads acyclic")
		}
		return nil
	}()
	if err != nil {
		t.Fatalf("repeat probe of the cyclic source ran GYO again: %v", err)
	}

	chain := genex.ParityChain(4)
	if !Acyclic(ctx, chain.I) {
		t.Fatal("ParityChain(4) reads cyclic")
	}
	if fo := compile(chain.I).forest.Load(); fo == nil || len(fo.parent) != chain.I.Size() {
		t.Fatal("acyclic source's form does not hold its forest")
	}
	// Closing the chain into a cycle drops the form.
	if err := chain.I.AddFact("T", "x5", "y5", "x1", "y1"); err != nil {
		t.Fatal(err)
	}
	if chain.I.Compiled() != nil {
		t.Fatal("AddFact kept the compiled form")
	}
	if Acyclic(ctx, chain.I) {
		t.Fatal("the closed chain still reads acyclic")
	}
}

// TestConcurrentFirstSearches runs the first searches over shared,
// never compiled instances from several goroutines at once, as jobs do
// over a shared universe entry: every goroutine must get the one form
// published on each instance, the one verdict and the one cut, and the
// searches must agree, on the join tree, the cutset search and the
// backtracker.
func TestConcurrentFirstSearches(t *testing.T) {
	const goroutines = 8
	for round := 0; round < 10; round++ {
		chain, cycle, to := genex.ParityChain(5).I, genex.ParityCycle(5).I, relaxedParity()
		forms := make([][2]*Form, goroutines)
		cuts := make([]*joinForest, goroutines)
		answers := make([]string, goroutines)
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := context.Background()
				rc := Build(ctx, instance.NewPointed(chain), instance.NewPointed(to))
				rk := Build(ctx, instance.NewPointed(cycle), instance.NewPointed(to))
				if !Acyclic(ctx, chain) || Acyclic(ctx, cycle) {
					t.Error("the chain must read acyclic and the cycle cyclic")
					return
				}
				sol := make([]uint32, rc.NumVars())
				ok, _ := rc.Find(ctx, rc.Cut(ctx), 1, sol)
				ck := rk.Cut(ctx)
				okCut, path := rk.Find(ctx, ck, 1, nil)
				okCycle, _ := rk.Find(ctx, Cut{}, 1, nil)
				forms[g], cuts[g] = [2]*Form{rc.src, rk.dst}, ck.forest
				answers[g] = fmt.Sprint(sol, ok, okCut, path, okCycle)
			}()
		}
		wg.Wait()
		for g := range forms {
			if forms[g] != [2]*Form{compile(chain), compile(to)} {
				t.Fatalf("round %d: goroutine %d searched over a form the instances do not hold", round, g)
			}
			if cuts[g] == nil || cuts[g] != cuts[0] {
				t.Fatalf("round %d: goroutine %d searched under a cut the cycle's form does not keep", round, g)
			}
			if answers[g] != answers[0] {
				t.Fatalf("round %d: goroutine %d answered %s, goroutine 0 %s", round, g, answers[g], answers[0])
			}
		}
	}
}

// edgesFromBytes decodes fuzz input into edges: every 2 bytes form a
// 16-bit mask over the values v00..v15, each non-zero mask one edge. At
// most 16 edges, so GYO always runs in a trivial amount of time and the
// fuzzer explores structure, not size.
func edgesFromBytes(data []byte) [][]string {
	var sets [][]string
	for i := 0; i+1 < len(data) && len(sets) < 16; i += 2 {
		mask := uint16(data[i])<<8 | uint16(data[i+1])
		if mask == 0 {
			continue
		}
		var set []string
		for b := 0; b < 16; b++ {
			if mask&(1<<b) != 0 {
				set = append(set, fmt.Sprintf("v%02d", b))
			}
		}
		sets = append(sets, set)
	}
	return sets
}

// perArity names one relation per arity, so renaming values reorders
// the facts of each relation.
func perArity(_, arity int) string { return fmt.Sprintf("E%d", arity) }

// FuzzGYOReduction checks, for arbitrary edge sets: GYO never panics,
// the verdict is stable under a renaming of the values (GYO is
// confluent; the renaming reverses the variable ids and reorders the
// facts), and every forest passes the structural oracle (parent sanity,
// removal order, preorder, shared and fresh positions, running
// intersection).
func FuzzGYOReduction(f *testing.F) {
	f.Add([]byte{0x00, 0x03, 0x00, 0x06, 0x00, 0x0c})             // path ab-bc-cd
	f.Add([]byte{0x00, 0x03, 0x00, 0x06, 0x00, 0x05})             // triangle
	f.Add([]byte{0x00, 0x03, 0x00, 0x06, 0x00, 0x05, 0x00, 0x07}) // covered triangle
	f.Add([]byte{0xff, 0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := edgeInstance(edgesFromBytes(data), perArity)
		_, fo := probe(t, in)
		rename := make(map[instance.Value]instance.Value)
		for b := 0; b < 16; b++ {
			rename[instance.Value(fmt.Sprintf("v%02d", b))] = instance.Value(fmt.Sprintf("v%02d", 15-b))
		}
		if _, fo2 := probe(t, in.MapValues(rename)); fo2.acyclic != fo.acyclic {
			t.Fatalf("verdict flipped under renaming: %v vs %v", fo.acyclic, fo2.acyclic)
		}
	})
}
