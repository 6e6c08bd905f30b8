package compact

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
	"extremalcq/internal/solve"
)

// checkSolution verifies a solution vector is a genuine homomorphism at
// the value level: every source fact maps into the target.
func checkSolution(t *testing.T, from, to *instance.Instance, r *Rep, sol []uint32) {
	t.Helper()
	a := r.ToAssignment(sol)
	for _, f := range from.Facts() {
		if !to.Has(f.Map(a)) {
			t.Fatalf("solution does not preserve fact %v under %v", f, a)
		}
	}
}

// canon renders a solution canonically for set comparison.
func canon(sol []uint32) string { return fmt.Sprint(sol) }

// backtrack runs the backtracker (C = every variable) at the given
// worker count and returns its witness.
func backtrack(ctx context.Context, r *Rep, workers int) ([]uint32, bool) {
	sol := make([]uint32, r.NumVars())
	ok, _ := r.Find(ctx, Cut{}, workers, sol)
	return sol, ok
}

func allSolutions(t *testing.T, r *Rep, workers int) []string {
	t.Helper()
	var out []string
	r.FindAll(context.Background(), Cut{}, workers, func(sol []uint32) bool {
		out = append(out, canon(sol))
		return true
	})
	return out
}

// TestFindKnownCycles pins Find on the directed-cycle order: C_n → C_m
// has a homomorphism iff m divides n.
func TestFindKnownCycles(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		want bool
	}{
		{6, 3, true}, {6, 2, true}, {5, 3, false}, {4, 3, false}, {9, 3, true},
	} {
		from, to := genex.DirectedCycle(tc.n), genex.DirectedCycle(tc.m)
		r := Build(context.Background(), from, to)
		sol, ok := backtrack(context.Background(), r, 1)
		if ok != tc.want {
			t.Fatalf("C%d -> C%d: got %v, want %v", tc.n, tc.m, ok, tc.want)
		}
		if ok {
			checkSolution(t, from.I, to.I, r, sol)
		}
	}
}

// TestFindAllCount pins FindAll on path-into-cycle counts: a directed
// path maps into C_m in exactly m ways (one per image of its first
// vertex), and the parity families on their designed verdicts.
func TestFindAllCount(t *testing.T) {
	for _, m := range []int{2, 3, 5} {
		from, to := genex.DirectedPath(3), genex.DirectedCycle(m)
		r := Build(context.Background(), from, to)
		sols := allSolutions(t, r, 1)
		if len(sols) != m {
			t.Fatalf("P3 -> C%d: got %d answers, want %d", m, len(sols), m)
		}
		seen := map[string]bool{}
		for _, s := range sols {
			if seen[s] {
				t.Fatalf("P3 -> C%d: duplicate answer %s", m, s)
			}
			seen[s] = true
		}
	}
	parity := genex.ParityTarget()
	for n := 3; n <= 6; n++ {
		r := Build(context.Background(), genex.ParityCycle(n), parity)
		if _, ok := backtrack(context.Background(), r, 1); ok {
			t.Fatalf("ParityCycle(%d) -> ParityTarget should have no homomorphism", n)
		}
	}
}

// TestPinnedDomains checks pinned variables are seeded as singletons
// and constrain the search: pinning the head of a path to one cycle
// vertex leaves exactly one answer.
func TestPinnedDomains(t *testing.T) {
	from, to := genex.DirectedPath(3), genex.DirectedCycle(4)
	head := from.I.Dom()[0]
	for _, img := range to.I.Dom() {
		r := Build(context.Background(), instance.NewPointed(from.I, head), instance.NewPointed(to.I, img))
		sols := allSolutions(t, r, 1)
		if len(sols) != 1 {
			t.Fatalf("pinned head=%s: got %d answers, want 1", img, len(sols))
		}
		sol, ok := backtrack(context.Background(), r, 1)
		if !ok {
			t.Fatalf("pinned head=%s: Find found nothing", img)
		}
		if got := r.ToAssignment(sol)[head]; got != img {
			t.Fatalf("pinned head=%s mapped to %s", img, got)
		}
	}
}

// TestParallelMatchesSequential checks worker counts do not change
// verdicts, answer sets, or (by the prefix-ordered merge) enumeration
// order.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct{ from, to instance.Pointed }{
		{genex.DirectedCycle(12), genex.DirectedCycle(3)},
		{genex.DirectedCycle(12), genex.DirectedCycle(4)},
		{genex.ParityCycle(6), genex.ParityTarget()},
		{genex.Clique(3), genex.Clique(4)},
	}
	for _, tc := range cases {
		r := Build(context.Background(), tc.from, tc.to)
		seq := allSolutions(t, r, 1)
		for _, workers := range []int{2, 4} {
			par := allSolutions(t, r, workers)
			if len(par) != len(seq) {
				t.Fatalf("workers=%d: %d answers, sequential has %d", workers, len(par), len(seq))
			}
			for i := range seq {
				if par[i] != seq[i] {
					t.Fatalf("workers=%d: answer %d is %s, sequential has %s", workers, i, par[i], seq[i])
				}
			}
			_, okSeq := backtrack(context.Background(), r, 1)
			sol, okPar := backtrack(context.Background(), r, workers)
			if okSeq != okPar {
				t.Fatalf("workers=%d: Find=%v, sequential Find=%v", workers, okPar, okSeq)
			}
			if okPar {
				checkSolution(t, tc.from.I, tc.to.I, r, sol)
			}
		}
	}
}

// TestFindAllEarlyStop checks yield=false stops enumeration for both
// the sequential and the parallel driver.
func TestFindAllEarlyStop(t *testing.T) {
	r := Build(context.Background(), genex.DirectedCycle(12), genex.DirectedCycle(3))
	for _, workers := range []int{1, 4} {
		seen := 0
		r.FindAll(context.Background(), Cut{}, workers, func([]uint32) bool {
			seen++
			return seen < 2
		})
		if seen != 2 {
			t.Fatalf("workers=%d: yielded %d answers after early stop, want 2", workers, seen)
		}
	}
}

// TestCancellation checks a canceled context unwinds both drivers as a
// solve sentinel.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Build(context.Background(), genex.ParityCycle(8), genex.ParityTarget())
	for _, workers := range []int{1, 4} {
		err := func() (err error) {
			defer solve.Catch(&err)
			backtrack(ctx, r, workers)
			return nil
		}()
		if err == nil {
			t.Fatalf("workers=%d: canceled Find returned no error", workers)
		}
		err = func() (err error) {
			defer solve.Catch(&err)
			r.FindAll(ctx, Cut{}, workers, func([]uint32) bool { return true })
			return nil
		}()
		if err == nil {
			t.Fatalf("workers=%d: canceled FindAll returned no error", workers)
		}
	}
}

// TestArenaReuse checks searches stay correct when their scratch
// cycles through a shared arena across repeated solves (including
// parallel ones, where workers borrow concurrently). Reuse itself is a
// sync.Pool optimization and deliberately not asserted — the pool may
// drop items (it always does under -race).
func TestArenaReuse(t *testing.T) {
	a := NewArena()
	ctx := WithArena(context.Background(), a)
	from, to := genex.DirectedCycle(12), genex.DirectedCycle(4)
	for i := 0; i < 3; i++ {
		r := Build(ctx, from, to)
		if _, ok := backtrack(ctx, r, 4); !ok {
			t.Fatalf("round %d: C12 -> C4 must have a homomorphism", i)
		}
		sols := allSolutions(t, r, 1)
		if len(sols) != 4 {
			t.Fatalf("round %d: got %d answers, want 4", i, len(sols))
		}
	}
}

// TestEmptyTarget checks the degenerate cases: an empty target domain
// refutes any source with facts, and an empty source maps trivially.
func TestEmptyTarget(t *testing.T) {
	from := genex.DirectedPath(2)
	empty := instance.New(from.I.Schema())
	r := Build(context.Background(), from, instance.NewPointed(empty))
	if _, ok := backtrack(context.Background(), r, 1); ok {
		t.Fatal("path into empty instance must fail")
	}
	r = Build(context.Background(), instance.NewPointed(empty), from)
	sol, ok := backtrack(context.Background(), r, 1)
	if !ok {
		t.Fatal("empty source must map trivially")
	}
	if len(sol) != 0 {
		t.Fatalf("empty source solution has %d vars", len(sol))
	}
}

// ---------------------------------------------------------------------
// reference propagator: the full-pass GAC the worklist replaced
// ---------------------------------------------------------------------

// fullPassPropagate is the reference for the incremental propagator:
// it enforces GAC fact by fact, position by position and candidate by
// candidate, and repeats the whole pass until a pass changes nothing.
// It shares the searcher's domains and trail, so both can run on the
// same Rep and be compared word for word.
func (s *searcher) fullPassPropagate() bool {
	changed := true
	for changed {
		changed = false
		for fi := range s.r.src.facts {
			f, rd := &s.r.src.facts[fi], s.r.rel(fi)
			if rd == nil {
				return false
			}
			for j := range f.args {
				removed, alive := s.narrow(f, rd, j, int(f.args[j]))
				if removed > 0 {
					changed = true
				}
				if !alive {
					return false
				}
			}
		}
	}
	return true
}

// narrow removes from dom(v) every candidate unsupported at position j
// of fact f, mapped into rd. Returns the number of removed candidates
// and whether the domain stayed non-empty.
func (s *searcher) narrow(f *cfact, rd *relData, j, v int) (removed int, alive bool) {
	base := v * s.r.words
	for i := 0; i < s.r.words; i++ {
		w := s.dom[base+i]
		kept := w
		for bw := w; bw != 0; bw &= bw - 1 {
			b := bits.TrailingZeros64(bw)
			if !s.supported(f, rd, j, uint32(i*64+b)) {
				kept &^= uint64(1) << b
				removed++
			}
		}
		if kept != w {
			s.setWord(base+i, kept)
		}
		alive = alive || kept != 0
	}
	return removed, alive
}

// supported reports whether some row of rd, f's target relation, has
// cand at position j, every other position's value inside the current
// domain of its variable, and equal values wherever f repeats a
// variable.
func (s *searcher) supported(f *cfact, rd *relData, j int, cand uint32) bool {
	ar := rd.arity
	b := j*s.r.nt + int(cand)
	for _, row := range rd.idxRows[rd.idxOff[b]:rd.idxOff[b+1]] {
		off := int(row) * ar
		match := true
		for k := 0; k < ar; k++ {
			w := rd.rows[off+k]
			if fp := int(f.firstPos[k]); fp != k {
				if rd.rows[off+fp] != w {
					match = false
					break
				}
				continue
			}
			if !s.has(int(f.args[k]), w) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// randomRep builds a random search over {R/2, P/1, T/3}: a source with
// repeated variables, a target and a pinned distinguished tuple (pairs
// hom.newSearch would reject are drawn again). Half the targets get a
// planted image of the source, so that the search is satisfiable and
// assignments reach deep before they wipe out.
func randomRep(rng *rand.Rand) *Rep {
	sch := schema.MustNew(
		schema.Relation{Name: "R", Arity: 2},
		schema.Relation{Name: "P", Arity: 1},
		schema.Relation{Name: "T", Arity: 3},
	)
	for {
		k := rng.Intn(3)
		from := genex.RandomPointed(rng, sch, 4+rng.Intn(6), 5+rng.Intn(10), k)
		to := genex.RandomPointed(rng, sch, 3+rng.Intn(3), 14+rng.Intn(24), k)
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
		pinned := make(map[instance.Value]instance.Value)
		ok := true
		for i, a := range from.Tuple {
			b := to.Tuple[i]
			if prev, dup := pinned[a]; (dup && prev != b) || !to.I.InDom(b) {
				ok = false
				break
			}
			pinned[a] = b
		}
		if ok {
			return Build(context.Background(), from, to)
		}
	}
}

// sameDomains fails the test when two searchers' domain words differ.
func sameDomains(t *testing.T, what string, a, b *searcher) {
	t.Helper()
	for i := range a.dom {
		if a.dom[i] != b.dom[i] {
			t.Fatalf("%s: domain word %d is %#x, the full-pass reference has %#x", what, i, a.dom[i], b.dom[i])
		}
	}
}

// TestIncrementalGACMatchesFullPass is the property test for the
// worklist propagator: on random searches, at the root and after each
// step of a random sequence of assignments (and undos), the incremental
// propagation reaches the reference's verdict and, when alive, its
// domain words; Rep.ArcConsistent agrees with the reference's root
// verdict, and a wipe-out leaves the queue empty.
func TestIncrementalGACMatchesFullPass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for iter := 0; iter < 1000; iter++ {
		r := randomRep(rng)
		inc, ref := r.newSearcher(ctx, r.init, nil), r.newSearcher(ctx, r.init, nil)
		alive := ref.fullPassPropagate()
		if got := inc.propagateAll(); got != alive {
			t.Fatalf("iter %d: root propagation alive=%v, reference %v", iter, got, alive)
		}
		if got := r.ArcConsistent(ctx); got != alive {
			t.Fatalf("iter %d: ArcConsistent=%v, reference %v", iter, got, alive)
		}
		if !alive {
			continue
		}
		sameDomains(t, fmt.Sprintf("iter %d root", iter), inc, ref)
		for step := 0; step < 24; step++ {
			var open []int
			for v := 0; v < r.nv; v++ {
				if inc.count(v) > 1 {
					open = append(open, v)
				}
			}
			if len(open) == 0 {
				break
			}
			v := open[rng.Intn(len(open))]
			cands := inc.candidates(v, 0)
			w := cands[rng.Intn(len(cands))]
			mInc, mRef := inc.mark(), ref.mark()
			before := append([]uint64(nil), ref.dom...)
			inc.epoch++
			ref.epoch++
			inc.assign(v, w)
			ref.assign(v, w)
			what := fmt.Sprintf("iter %d step %d (var %d := %d)", iter, step, v, w)
			alive := ref.fullPassPropagate()
			if got := inc.propagateFrom(v); got != alive {
				t.Fatalf("%s: alive=%v, reference %v", what, got, alive)
			}
			if inc.queueN != 0 {
				t.Fatalf("%s: %d facts left queued", what, inc.queueN)
			}
			for fi, q := range inc.queued {
				if q {
					t.Fatalf("%s: fact %d still marked queued", what, fi)
				}
			}
			if alive {
				sameDomains(t, what, inc, ref)
			}
			if !alive || rng.Intn(4) == 0 {
				inc.undo(mInc)
				ref.undo(mRef)
				sameDomains(t, what+" undone", inc, ref)
				for i, w := range before {
					if ref.dom[i] != w {
						t.Fatalf("%s: undo left word %d at %#x, was %#x", what, i, ref.dom[i], w)
					}
				}
			}
		}
	}
}
