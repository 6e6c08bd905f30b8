package hom

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"extremalcq/internal/compact"
	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/schema"
)

// joinTreePairs is the seeded α-acyclic corpus of the join-tree pins:
// random sources over {R/2, P/1, Q/1} and {T/4, S/3, R/2} with pinned
// distinguished tuples (half of the targets hold a planted image of the
// source), parity chains into the parity target with A relaxed to all
// pairs, and directed paths into directed cycles.
func joinTreePairs() (names []string, pairs [][2]instance.Pointed) {
	add := func(name string, from, to instance.Pointed) {
		names = append(names, name)
		pairs = append(pairs, [2]instance.Pointed{from, to})
	}
	schemas := []*schema.Schema{
		schema.MustNew(
			schema.Relation{Name: "R", Arity: 2},
			schema.Relation{Name: "P", Arity: 1},
			schema.Relation{Name: "Q", Arity: 1},
		),
		schema.MustNew(
			schema.Relation{Name: "T", Arity: 4},
			schema.Relation{Name: "S", Arity: 3},
			schema.Relation{Name: "R", Arity: 2},
		),
	}
	rng := rand.New(rand.NewSource(22))
	for si, sch := range schemas {
		for kept := 0; kept < 40; {
			k := rng.Intn(3)
			from := genex.RandomPointed(rng, sch, 3+rng.Intn(4), 2+rng.Intn(5), k)
			to := genex.RandomPointed(rng, sch, 2+rng.Intn(2), 8+rng.Intn(16), k)
			if rng.Intn(2) == 0 {
				img := make(map[instance.Value]instance.Value)
				for _, v := range from.I.Dom() {
					img[v] = instance.Value(fmt.Sprintf("n%d", rng.Intn(3)))
				}
				for _, f := range from.I.Facts() {
					if err := to.I.AddFact(f.Rel, f.Map(img).Args...); err != nil {
						panic(err)
					}
				}
				for i, a := range from.Tuple {
					to.Tuple[i] = img[a]
				}
			}
			if !compact.Acyclic(context.Background(), from.I) {
				continue
			}
			add(fmt.Sprintf("schema %d random #%d", si, kept), from, to)
			kept++
		}
	}
	relaxed := genex.ParityTarget()
	for _, pair := range [][2]instance.Value{{"0", "1"}, {"1", "0"}} {
		if err := relaxed.I.AddFact("A", pair[0], pair[1]); err != nil {
			panic(err)
		}
	}
	for n := 1; n <= 6; n++ {
		add(fmt.Sprintf("ParityChain(%d)->relaxed", n), genex.ParityChain(n), relaxed)
	}
	for _, n := range []int{2, 3, 5} {
		for _, m := range []int{2, 3, 4} {
			add(fmt.Sprintf("P%d->C%d", n, m), genex.DirectedPath(n), genex.DirectedCycle(m))
		}
	}
	return names, pairs
}

// TestJoinTreeWitnessAndOrderPinned pins what the join-tree evaluator
// must not change, with dispatch on auto: the witness Find returns,
// the order in which FindAll yields every answer, the number of
// answers, and the semi-join reductions and join-tree nodes the two
// calls count. A core retraction keeps the image of its witness, so a
// different witness would change which elements a core keeps. The
// numbers were recorded with the string-keyed evaluator the compact one
// replaced.
func TestJoinTreeWitnessAndOrderPinned(t *testing.T) {
	const (
		wantWitnesses = "656a5335cb49734e"
		wantOrder     = "2c5fcfe57a5cb37a"
		wantAnswers   = 691
		wantReduced   = 552
		wantNodes     = 692
	)
	names, pairs := joinTreePairs()
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	var witnesses, order []string
	total := 0
	for i, p := range pairs {
		from, to := p[0], p[1]
		if !compact.Acyclic(context.Background(), from.I) {
			t.Fatalf("%s: the corpus holds a cyclic source", names[i])
		}
		h, ok := FindCtx(ctx, from, to)
		witnesses = append(witnesses, fmt.Sprintf("%s:%v:%s", names[i], ok, canonAssignment(h)))
		var seq []string
		FindAllCtx(ctx, from, to, func(a Assignment) bool {
			seq = append(seq, canonAssignment(a))
			return true
		})
		total += len(seq)
		order = append(order, names[i]+"\n"+strings.Join(seq, "\n"))
	}
	if got := rec.Count(obs.CtrDispatchBacktrack); got != 0 {
		t.Fatalf("%d searches took the backtracker; the corpus must be acyclic", got)
	}
	if got := answerDigest(witnesses); got != wantWitnesses {
		t.Errorf("witness digest %s, pinned %s", got, wantWitnesses)
	}
	if got := answerDigest(order); got != wantOrder {
		t.Errorf("FindAll order digest %s, pinned %s", got, wantOrder)
	}
	if total != wantAnswers {
		t.Errorf("FindAll yielded %d answers over the corpus, pinned %d", total, wantAnswers)
	}
	if got := rec.Count(obs.CtrSemijoinReductions); got != wantReduced {
		t.Errorf("%d semi-join reductions over the corpus, pinned %d", got, wantReduced)
	}
	if got := rec.Count(obs.CtrJoinTreeNodes); got != wantNodes {
		t.Errorf("%d join-tree nodes over the corpus, pinned %d", got, wantNodes)
	}
}
