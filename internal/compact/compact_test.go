package compact

import (
	"context"
	"fmt"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
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

func allSolutions(t *testing.T, r *Rep, workers int) []string {
	t.Helper()
	var out []string
	r.FindAll(context.Background(), workers, func(sol []uint32) bool {
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
		r := Build(context.Background(), from.I, to.I, nil)
		sol, ok := r.Find(context.Background(), 1)
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
		r := Build(context.Background(), from.I, to.I, nil)
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
		r := Build(context.Background(), genex.ParityCycle(n).I, parity.I, nil)
		if _, ok := r.Find(context.Background(), 1); ok {
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
		pinned := map[instance.Value]instance.Value{head: img}
		r := Build(context.Background(), from.I, to.I, pinned)
		sols := allSolutions(t, r, 1)
		if len(sols) != 1 {
			t.Fatalf("pinned head=%s: got %d answers, want 1", img, len(sols))
		}
		sol, ok := r.Find(context.Background(), 1)
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
		r := Build(context.Background(), tc.from.I, tc.to.I, nil)
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
			_, okSeq := r.Find(context.Background(), 1)
			sol, okPar := r.Find(context.Background(), workers)
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
	r := Build(context.Background(), genex.DirectedCycle(12).I, genex.DirectedCycle(3).I, nil)
	for _, workers := range []int{1, 4} {
		seen := 0
		r.FindAll(context.Background(), workers, func([]uint32) bool {
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
	r := Build(context.Background(), genex.ParityCycle(8).I, genex.ParityTarget().I, nil)
	for _, workers := range []int{1, 4} {
		err := func() (err error) {
			defer solve.Catch(&err)
			r.Find(ctx, workers)
			return nil
		}()
		if err == nil {
			t.Fatalf("workers=%d: canceled Find returned no error", workers)
		}
		err = func() (err error) {
			defer solve.Catch(&err)
			r.FindAll(ctx, workers, func([]uint32) bool { return true })
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
		r := Build(ctx, from.I, to.I, nil)
		if _, ok := r.Find(ctx, 4); !ok {
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
	r := Build(context.Background(), from.I, empty, nil)
	if _, ok := r.Find(context.Background(), 1); ok {
		t.Fatal("path into empty instance must fail")
	}
	r = Build(context.Background(), empty, from.I, nil)
	sol, ok := r.Find(context.Background(), 1)
	if !ok {
		t.Fatal("empty source must map trivially")
	}
	if len(sol) != 0 {
		t.Fatalf("empty source solution has %d vars", len(sol))
	}
}
