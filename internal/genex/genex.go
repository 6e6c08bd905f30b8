// Package genex generates the example families used throughout the
// paper's proofs and our benchmark harness: cliques, directed paths and
// cycles, transitive tournaments, Mycielski graphs, prime-length cycles
// (Theorem 3.40), the bit-string gadgets of Theorems 3.41/3.42, the
// L/R/A family of Theorem 5.37 (Figure 5), and random instances for
// property tests.
package genex

import (
	"fmt"
	"math/rand"
	"slices"

	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
)

// SchemaR returns the fixed schema with a single binary relation R,
// used by most lower-bound constructions. It is a function rather than
// a package-level variable (cqlint:noglobals): *schema.Schema is
// mutable, and a shared instance would couple every engine in the
// process.
func SchemaR() *schema.Schema {
	return schema.MustNew(schema.Relation{Name: "R", Arity: 2})
}

// SchemaLRA returns the fixed binary schema {L/2, R/2, A/1} of
// Theorem 5.37 (see SchemaR for why this is a function).
func SchemaLRA() *schema.Schema {
	return schema.MustNew(
		schema.Relation{Name: "L", Arity: 2},
		schema.Relation{Name: "R", Arity: 2},
		schema.Relation{Name: "A", Arity: 1},
	)
}

func val(prefix string, i int) instance.Value {
	return instance.Value(fmt.Sprintf("%s%d", prefix, i))
}

// Clique returns K_n: the n-clique with a symmetric irreflexive binary
// relation R (used in the exact-4-colorability reduction, Theorem 3.1).
func Clique(n int) instance.Pointed {
	in := instance.New(SchemaR())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				must(in.AddFact("R", val("v", i), val("v", j)))
			}
		}
	}
	return instance.NewPointed(in)
}

// DirectedPath returns the directed path with n edges (n+1 nodes):
// e_n in Example 2.14.
func DirectedPath(n int) instance.Pointed {
	in := instance.New(SchemaR())
	for i := 0; i < n; i++ {
		must(in.AddFact("R", val("p", i), val("p", i+1)))
	}
	return instance.NewPointed(in)
}

// DirectedCycle returns the directed cycle with n nodes.
func DirectedCycle(n int) instance.Pointed {
	in := instance.New(SchemaR())
	for i := 0; i < n; i++ {
		must(in.AddFact("R", val("c", i), val("c", (i+1)%n)))
	}
	return instance.NewPointed(in)
}

// TransitiveTournament returns the strict linear order on n elements
// (e'_n in Example 2.14: edges (i,j) for i<j).
func TransitiveTournament(n int) instance.Pointed {
	in := instance.New(SchemaR())
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			must(in.AddFact("R", val("t", i), val("t", j)))
		}
	}
	return instance.NewPointed(in)
}

// Mycielski returns the Mycielski graph M_k (k ≥ 2) as a symmetric
// irreflexive R: M_2 = K_2, and M_(k+1) adds to M_k a twin of each
// vertex, adjacent to that vertex's neighbours, and one apex adjacent to
// every twin. M_k is triangle-free with chromatic number k (M_4, the
// Grötzsch graph, has 11 vertices and 40 facts; M_5 has 23 and 142), so
// M_k ↛ K_(k−1) is a refutation no clique of pairwise distinct
// variables shows: none has more than two members.
func Mycielski(k int) instance.Pointed {
	edges, n := [][2]int{{0, 1}}, 2
	for ; k > 2; k-- {
		next := slices.Clone(edges)
		for _, e := range edges {
			next = append(next, [2]int{n + e[0], e[1]}, [2]int{e[0], n + e[1]})
		}
		for u := 0; u < n; u++ {
			next = append(next, [2]int{n + u, 2 * n})
		}
		edges, n = next, 2*n+1
	}
	in := instance.New(SchemaR())
	for _, e := range edges {
		must(in.AddFact("R", val("m", e[0]), val("m", e[1])))
		must(in.AddFact("R", val("m", e[1]), val("m", e[0])))
	}
	return instance.NewPointed(in)
}

// Primes returns the first n primes (p_1 = 2).
func Primes(n int) []int {
	out := make([]int, 0, n)
	//cqlint:ignore ctxloop -- stops at the n-th prime; n is a small caller-fixed constant
	for x := 2; len(out) < n; x++ {
		prime := true
		for _, p := range out {
			if p*p > x {
				break
			}
			if x%p == 0 {
				prime = false
				break
			}
		}
		if prime {
			out = append(out, x)
		}
	}
	return out
}

// PrimeCycleFamily returns the labeled example collection of
// Theorem 3.40: positives are the directed cycles of lengths p_2..p_n,
// the negative is the 2-cycle C_{p_1}. Every fitting CQ must contain an
// odd cycle whose length is a common multiple of p_2..p_n, hence has size
// at least 2^n.
func PrimeCycleFamily(n int) (pos, neg []instance.Pointed) {
	ps := Primes(n)
	for _, p := range ps[1:] {
		pos = append(pos, DirectedCycle(p))
	}
	neg = []instance.Pointed{DirectedCycle(ps[0])}
	return pos, neg
}

// RandomInstance returns a random instance over sch with the given
// domain size and (approximate) number of facts.
func RandomInstance(rng *rand.Rand, sch *schema.Schema, domSize, facts int) *instance.Instance {
	in := instance.New(sch)
	rels := sch.Relations()
	if len(rels) == 0 || domSize <= 0 {
		return in
	}
	for i := 0; i < facts; i++ {
		r := rels[rng.Intn(len(rels))]
		args := make([]instance.Value, r.Arity)
		for j := range args {
			args[j] = val("n", rng.Intn(domSize))
		}
		must(in.AddFact(r.Name, args...))
	}
	return in
}

// RandomPointed returns a random pointed instance with arity k whose
// distinguished elements are drawn from the active domain (so it is a
// data example) unless the instance is empty.
func RandomPointed(rng *rand.Rand, sch *schema.Schema, domSize, facts, k int) instance.Pointed {
	in := RandomInstance(rng, sch, domSize, facts)
	dom := in.Dom()
	tuple := make([]instance.Value, k)
	for i := range tuple {
		if len(dom) == 0 {
			tuple[i] = "z"
		} else {
			tuple[i] = dom[rng.Intn(len(dom))]
		}
	}
	return instance.NewPointed(in, tuple...)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
