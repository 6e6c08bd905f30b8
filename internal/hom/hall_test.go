package hom

import (
	"fmt"
	"math/rand"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
)

// This file builds the oracle corpus for the compact core's root Hall
// check: pairs whose target relations hold no row with equal values at
// some position pairs, so that a source fact makes its variables at
// those positions must-differ, and sources whose must-differ cliques
// outnumber, or match, the target's values. TestCompactNaiveAgree and
// TestCutsetNaiveAgree run it against the naive enumerator, which knows
// nothing of the check.

// hallCase is one pair of the corpus and what the check must do with
// it.
type hallCase struct {
	name     string
	from, to instance.Pointed
	hall     hallVerdict
}

// hallVerdict is what the Hall check must do with a pair: refute it at
// the root, or not, or either (random pairs).
type hallVerdict uint8

const (
	either hallVerdict = iota
	refutes
	passes
)

// check fails t when the number of searches the check refuted at the
// root, fired, contradicts what the case expects.
func (c hallCase) check(t *testing.T, fired int64) {
	t.Helper()
	if c.hall == refutes && fired == 0 || c.hall == passes && fired != 0 {
		t.Errorf("%s: the Hall check refuted %d searches; want refutes=%v", c.name, fired, c.hall == refutes)
	}
}

// hallCorpus returns the corpus:
//   - cliques into cliques, K3..K6 → K3..K5;
//   - loop-free random graphs and random tournaments as targets, and
//     sources holding a planted clique with one, two or both edges per
//     pair, of one variable more than the target has values or of as
//     many, with pinned tuples on half of them;
//   - T/3 targets with no row equal at positions (0,1) or (1,2) but
//     rows equal at (0,2), so that T(a,b,c) makes a–b and b–c
//     must-differ but not a–c;
//   - a K4 that the check refutes only once a pinned variable's
//     singleton domain has narrowed its neighbours' through S;
//   - cliques spelled in a 9-ary relation, wider than any differ mask,
//     so they give no must-differ edge and GAC and the search decide.
func hallCorpus() []hallCase {
	var out []hallCase
	add := func(name string, from, to instance.Pointed, hall hallVerdict) {
		out = append(out, hallCase{name, from, to, hall})
	}
	for n := 3; n <= 6; n++ {
		for m := 3; m <= 5; m++ {
			hall := passes
			if n > m {
				hall = refutes
			}
			add(fmt.Sprintf("K%d->K%d", n, m), genex.Clique(n), genex.Clique(m), hall)
		}
	}

	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 48; i++ {
		var to *instance.Instance
		kind := "graph"
		if i%2 == 0 {
			to = looplessGraph(rng, 3+rng.Intn(3))
		} else {
			kind = "tournament"
			to = tournament(rng, 3+rng.Intn(3))
		}
		nt := to.DomSize()
		size := nt + i/2%2 // one above the target's values, or as many
		from := plantedClique(rng, size, rng.Intn(2))
		k := 0
		if i%4 >= 2 {
			k = 1 + rng.Intn(2)
		}
		add(fmt.Sprintf("%s #%d: clique of %d into %d values, %d pinned", kind, i, size, nt, k),
			pointAt(rng, instance.NewPointed(from), k), pointAt(rng, instance.NewPointed(to), k), either)
	}

	// Two T/3 targets with no row equal at (0,1) or (1,2): over three
	// values with rows equal at (0,2) and some that are not, and over two
	// values, where every row is equal at (0,2).
	tsch := schema.MustNew(schema.Relation{Name: "T", Arity: 3})
	t3, t2 := instance.New(tsch), instance.New(tsch)
	for x := 0; x < 3; x++ {
		for y := 0; y < 3; y++ {
			for z := 0; z < 3; z++ {
				if x != y && y != z && (x == z || rng.Intn(2) == 0) {
					mustAdd(t3, "T", vals("t", x, y, z)...)
				}
			}
		}
	}
	mustAdd(t2, "T", vals("t", 0, 1, 0)...)
	mustAdd(t2, "T", vals("t", 1, 0, 1)...)
	targets := []struct {
		name string
		to   *instance.Instance
	}{{"T/3 on 3 values", t3}, {"T/3 on 2 values", t2}}
	// A cyclic ring whose must-differ graph is the 6-cycle a–b–…–f–a:
	// a, c and e need not differ, and map to one value in t2.
	ring := instance.New(tsch)
	mustAdd(ring, "T", "a", "b", "c")
	mustAdd(ring, "T", "c", "d", "e")
	mustAdd(ring, "T", "e", "f", "a")
	for _, tg := range targets {
		to := instance.NewPointed(tg.to)
		add("T ring -> "+tg.name, instance.NewPointed(ring), to, passes)
		for size := 3; size <= 4; size++ {
			// T(u,v,u) for each pair makes the variables pairwise
			// must-differ through (0,1) and (1,2).
			in := instance.New(tsch)
			for u := 0; u < size; u++ {
				for v := u + 1; v < size; v++ {
					mustAdd(in, "T", vals("c", u, v, u)...)
				}
			}
			hall := passes
			if size > tg.to.DomSize() {
				hall = refutes
			}
			add(fmt.Sprintf("T-clique of %d -> %s", size, tg.name), instance.NewPointed(in), to, hall)
		}
		for i := 0; i < 12; i++ {
			in := genex.RandomInstance(rng, tsch, 4+rng.Intn(2), 2+rng.Intn(4))
			k := rng.Intn(2)
			add(fmt.Sprintf("random T #%d -> %s", i, tg.name), pointAt(rng, instance.NewPointed(in), k), pointAt(rng, to, k), either)
		}
	}

	// S(a,x) sends x to {1,2} only when a is 0, and to {0,1,2} when a
	// is 3: b, c and d share two values once a is pinned to 0, and
	// three otherwise.
	rs := schema.MustNew(schema.Relation{Name: "R", Arity: 2}, schema.Relation{Name: "S", Arity: 2})
	src, dst := instance.New(rs), instance.New(rs)
	addClique(src, "R", vals("", 0, 1, 2, 3))
	addClique(dst, "R", vals("", 0, 1, 2, 3))
	for _, x := range []instance.Value{"1", "2", "3"} {
		mustAdd(src, "S", "0", x)
	}
	for _, row := range [][2]instance.Value{{"0", "1"}, {"0", "2"}, {"3", "0"}, {"3", "1"}, {"3", "2"}} {
		mustAdd(dst, "S", row[0], row[1])
	}
	add("K4 with S, unpinned", instance.NewPointed(src), instance.NewPointed(dst), passes)
	add("K4 with S, pinned to 0", instance.NewPointed(src, "0"), instance.NewPointed(dst, "0"), refutes)

	wide := schema.MustNew(schema.Relation{Name: "W", Arity: 9})
	perms := instance.New(wide)
	for _, p := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		mustAdd(perms, "W", repeat3(vals("w", p[0], p[1], p[2]))...)
	}
	for size := 3; size <= 4; size++ {
		// W(u,v,w,u,v,w,u,v,w) over consecutive triples: a clique of
		// size variables, had W a differ mask.
		in := instance.New(wide)
		for u := 0; u < size; u++ {
			mustAdd(in, "W", repeat3(vals("c", u, (u+1)%size, (u+2)%size))...)
		}
		add(fmt.Sprintf("W/9-clique of %d -> 3 values", size), instance.NewPointed(in), instance.NewPointed(perms), passes)
	}
	return out
}

// looplessGraph returns a random R over n values with no loop, every
// value in an edge.
func looplessGraph(rng *rand.Rand, n int) *instance.Instance {
	in := instance.New(genex.SchemaR())
	for u := 0; u < n; u++ {
		mustAdd(in, "R", vals("g", u, (u+1+rng.Intn(n-1))%n)...)
		for v := 0; v < n; v++ {
			if u != v && rng.Intn(2) == 0 {
				mustAdd(in, "R", vals("g", u, v)...)
			}
		}
	}
	return in
}

// tournament returns a random tournament on n values: one edge, in a
// random direction, between every two.
func tournament(rng *rand.Rand, n int) *instance.Instance {
	in := instance.New(genex.SchemaR())
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(2) == 0 {
				mustAdd(in, "R", vals("t", u, v)...)
			} else {
				mustAdd(in, "R", vals("t", v, u)...)
			}
		}
	}
	return in
}

// plantedClique returns size variables with one, the other or both R
// edges between every two, and extra variables joined to random clique
// members.
func plantedClique(rng *rand.Rand, size, extra int) *instance.Instance {
	in := instance.New(genex.SchemaR())
	for u := 0; u < size; u++ {
		for v := u + 1; v < size; v++ {
			switch rng.Intn(3) {
			case 0:
				mustAdd(in, "R", vals("c", u, v)...)
			case 1:
				mustAdd(in, "R", vals("c", v, u)...)
			default:
				mustAdd(in, "R", vals("c", u, v)...)
				mustAdd(in, "R", vals("c", v, u)...)
			}
		}
	}
	for x := 0; x < extra; x++ {
		mustAdd(in, "R", instance.Value(fmt.Sprintf("x%d", x)), vals("c", rng.Intn(size))[0])
	}
	return in
}

// pointAt points in at k values drawn from its domain.
func pointAt(rng *rand.Rand, in instance.Pointed, k int) instance.Pointed {
	dom := in.I.Dom()
	tuple := make([]instance.Value, k)
	for i := range tuple {
		tuple[i] = dom[rng.Intn(len(dom))]
	}
	return instance.NewPointed(in.I, tuple...)
}

// addClique adds R(u,v) for every two distinct values.
func addClique(in *instance.Instance, rel string, vs []instance.Value) {
	for _, u := range vs {
		for _, v := range vs {
			if u != v {
				mustAdd(in, rel, u, v)
			}
		}
	}
}

func vals(prefix string, is ...int) []instance.Value {
	out := make([]instance.Value, len(is))
	for k, i := range is {
		out[k] = instance.Value(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

func repeat3(vs []instance.Value) []instance.Value {
	return append(append(append([]instance.Value(nil), vs...), vs...), vs...)
}

func mustAdd(in *instance.Instance, rel string, args ...instance.Value) {
	if err := in.AddFact(rel, args...); err != nil {
		panic(err)
	}
}
