package hom

import (
	"context"
	"maps"
	"math/rand"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
)

// naiveFindAll is the reference enumerator the compact core is checked
// against. It binds adom(from) in sorted order, trying every target
// value for each, and rejects a partial assignment as soon as a fact
// whose values are all bound is missing from the target. It shares no
// propagation or variable-ordering logic with the solver, so it is
// independent of it, and exponential: keep its inputs small.
func naiveFindAll(from, to instance.Pointed, yield func(Assignment) bool) {
	if !from.I.Schema().Equal(to.I.Schema()) || from.Arity() != to.Arity() {
		return
	}
	forced := make(Assignment)
	for i, v := range from.Tuple {
		if prev, ok := forced[v]; ok && prev != to.Tuple[i] {
			return
		}
		forced[v] = to.Tuple[i]
	}
	vars, targets := from.I.Dom(), to.I.Dom()
	// due[i] lists the facts whose last value in binding order is vars[i]
	// (schemas have no nullary relations, so every fact has one).
	pos := make(map[instance.Value]int, len(vars))
	for i, v := range vars {
		pos[v] = i
	}
	due := make([][]instance.Fact, len(vars))
	for _, f := range from.I.Facts() {
		last := 0
		for _, v := range f.Args {
			last = max(last, pos[v])
		}
		due[last] = append(due[last], f)
	}
	a := maps.Clone(forced)
	var bind func(i int) bool
	bind = func(i int) bool {
		if i == len(vars) {
			return yield(maps.Clone(a))
		}
		cands := targets
		if b, ok := forced[vars[i]]; ok {
			cands = []instance.Value{b}
		}
		for _, w := range cands {
			a[vars[i]] = w
			holds := true
			for _, f := range due[i] {
				if !to.I.Has(f.Map(a)) {
					holds = false
					break
				}
			}
			if holds && !bind(i+1) {
				return false
			}
		}
		return true
	}
	bind(0)
}

// compactNaiveAgree cross-checks the compact core, at 1 and at 4
// workers, against naiveFindAll on one (from, to) pair: same exists
// verdict, valid witnesses, and identical enumerated answer sets.
// Dispatch is forced to backtrack so the join-tree fast path cannot
// mask the core. The searches' counters go to rec.
func compactNaiveAgree(t *testing.T, rec *obs.Recorder, from, to instance.Pointed) {
	t.Helper()
	want := make(map[string]bool)
	naiveFindAll(from, to, func(a Assignment) bool {
		want[canonAssignment(a)] = true
		return true
	})
	base := obs.WithRecorder(WithDispatchMode(context.Background(), DispatchBacktrack), rec)
	for _, workers := range []int{1, 4} {
		ctx := WithSearchWorkers(base, workers)
		h, ok := FindCtx(ctx, from, to)
		if ok != (len(want) > 0) {
			t.Fatalf("workers=%d: exists=%v, naive enumerator found %d homomorphisms", workers, ok, len(want))
		}
		if ok {
			checkWitness(t, from, to, h)
		}
		got := findAllSet(ctx, from, to)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: answer-set sizes differ: compact=%d naive=%d", workers, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("workers=%d: compact core missed answer %s", workers, k)
			}
		}
	}
}

// TestCompactNaiveAgree is the conformance differential for the
// compact core: randomized instances plus the structured families
// where the representation is stressed hardest (parity gadgets that
// defeat GAC, cycles into cycles, cliques), and the Hall corpus
// (hall_test.go), whose must-differ cliques the root check refutes or
// must leave alone. Run under -race in CI so the parallel driver's
// sharing is exercised, not just its answers.
func TestCompactNaiveAgree(t *testing.T) {
	rec := obs.NewRecorder()
	check := func(from, to instance.Pointed) { compactNaiveAgree(t, rec, from, to) }
	rng := rand.New(rand.NewSource(10))
	sch := genex.SchemaR()
	for i := 0; i < 80; i++ {
		from := genex.RandomPointed(rng, sch, 4, 2+rng.Intn(5), rng.Intn(2))
		to := genex.RandomPointed(rng, sch, 3, 2+rng.Intn(7), from.Arity())
		check(from, to)
	}

	parity := genex.ParityTarget()
	for n := 1; n <= 5; n++ {
		check(genex.ParityChain(n), parity)
	}
	for n := 3; n <= 6; n++ {
		check(genex.ParityCycle(n), parity)
	}
	for _, n := range []int{3, 4, 6, 12} {
		for _, m := range []int{2, 3, 4} {
			check(genex.DirectedCycle(n), genex.DirectedCycle(m))
		}
	}
	check(genex.Clique(3), genex.Clique(4))
	check(genex.Clique(3), genex.Clique(2))
	for _, c := range hallCorpus() {
		before := rec.Count(obs.CtrHallRefutations)
		check(c.from, c.to)
		c.check(t, rec.Count(obs.CtrHallRefutations)-before)
	}
	t.Logf("the Hall check refuted %d searches", rec.Count(obs.CtrHallRefutations))
}
