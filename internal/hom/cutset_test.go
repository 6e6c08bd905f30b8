package hom

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"extremalcq/internal/compact"
	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/schema"
)

// cutsetNaiveAgree cross-checks the search under auto dispatch, at one
// and at two workers, against naiveFindAll on one (from, to) pair: the
// same exists verdict from ExistsCtx and FindCtx, a valid witness, and
// FindAll yielding each of the enumerator's answers exactly once. The
// paths the searches took are counted in stats, their counters in rec.
func cutsetNaiveAgree(t *testing.T, stats *DispatchStats, rec *obs.Recorder, name string, from, to instance.Pointed) {
	t.Helper()
	want := make(map[string]bool)
	naiveFindAll(from, to, func(a Assignment) bool {
		want[canonAssignment(a)] = true
		return true
	})
	base := obs.WithRecorder(WithDispatchStats(context.Background(), stats), rec)
	for _, workers := range []int{1, 2} {
		ctx := WithSearchWorkers(base, workers)
		if ok := ExistsCtx(ctx, from, to); ok != (len(want) > 0) {
			t.Fatalf("%s, workers=%d: ExistsCtx=%v, naive enumerator found %d homomorphisms", name, workers, ok, len(want))
		}
		h, ok := FindCtx(ctx, from, to)
		if ok != (len(want) > 0) {
			t.Fatalf("%s, workers=%d: FindCtx=%v, naive enumerator found %d homomorphisms", name, workers, ok, len(want))
		}
		if ok {
			checkWitness(t, from, to, h)
		}
		got, yields := make(map[string]bool), 0
		FindAllCtx(ctx, from, to, func(a Assignment) bool {
			got[canonAssignment(a)] = true
			yields++
			return true
		})
		if yields != len(want) || len(got) != len(want) {
			t.Fatalf("%s, workers=%d: FindAll yielded %d answers (%d distinct), naive enumerator %d", name, workers, yields, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%s, workers=%d: FindAll missed answer %s", name, workers, k)
			}
		}
	}
}

// TestCutsetNaiveAgree is the oracle for the one search under auto
// dispatch, where cyclic sources branch on a cycle cutset and finish
// each leaf on the join tree: random cyclic sources with pinned tuples
// of arity 0 to 2 (half the targets hold a planted image of the
// source), directed cycles with and without a distinguished vertex,
// parity cycles, cliques, and the Hall corpus (hall_test.go). It must
// see all three paths: the join tree (C2 and K2 are acyclic), the
// cutset search, and the backtracker (K6 → K5, whose cut would have
// 5^4 leaves). Run under -race in CI so the parallel backtracker's
// sharing is exercised too.
func TestCutsetNaiveAgree(t *testing.T) {
	var stats DispatchStats
	rec := obs.NewRecorder()
	sch := schema.MustNew(
		schema.Relation{Name: "R", Arity: 2},
		schema.Relation{Name: "P", Arity: 1},
		schema.Relation{Name: "T", Arity: 3},
	)
	rng := rand.New(rand.NewSource(23))
	for kept := 0; kept < 80; {
		k := rng.Intn(3)
		from := genex.RandomPointed(rng, sch, 3+rng.Intn(5), 3+rng.Intn(7), k)
		if compact.Acyclic(context.Background(), from.I) {
			continue
		}
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
		cutsetNaiveAgree(t, &stats, rec, fmt.Sprintf("random #%d", kept), from, to)
		kept++
	}

	parity := genex.ParityTarget()
	for n := 3; n <= 12; n++ {
		cutsetNaiveAgree(t, &stats, rec, fmt.Sprintf("ParityCycle(%d)", n), genex.ParityCycle(n), parity)
	}
	for _, n := range []int{2, 3, 4, 6, 12} {
		for _, m := range []int{2, 3, 4} {
			from, to := genex.DirectedCycle(n), genex.DirectedCycle(m)
			cutsetNaiveAgree(t, &stats, rec, fmt.Sprintf("C%d->C%d", n, m), from, to)
			// A distinguished vertex on the cycle: the source is cyclic,
			// but acyclic once its pinned variable is conditioned away.
			dom := to.I.Dom()
			pointed := instance.NewPointed(from.I, from.I.Dom()[0])
			cutsetNaiveAgree(t, &stats, rec, fmt.Sprintf("C%d->C%d pointed", n, m), pointed, instance.NewPointed(to.I, dom[len(dom)-1]))
		}
	}
	for n := 2; n <= 6; n++ {
		for m := 2; m <= 5; m++ {
			cutsetNaiveAgree(t, &stats, rec, fmt.Sprintf("K%d->K%d", n, m), genex.Clique(n), genex.Clique(m))
		}
	}
	for _, c := range hallCorpus() {
		before := rec.Count(obs.CtrHallRefutations)
		cutsetNaiveAgree(t, &stats, rec, c.name, c.from, c.to)
		c.check(t, rec.Count(obs.CtrHallRefutations)-before)
	}
	jt, cs, bt := stats.Snapshot()
	t.Logf("paths: %d join tree, %d cutset, %d backtrack; %d Hall refutations", jt, cs, bt, rec.Count(obs.CtrHallRefutations))
	if jt == 0 || cs == 0 || bt == 0 {
		t.Fatalf("the corpus must take every path: %d join tree, %d cutset, %d backtrack", jt, cs, bt)
	}
}

// TestCutsetSearchPinned pins the search trees of the cutset search in
// deterministic units, under auto dispatch at one and two workers. A
// parity cycle is cut at {x1, y1}: three branch nodes (x1's two values,
// y1 following by propagation) and two join-tree leaves refute it at
// every length, where the backtracker walks 2^(n-7)−1 nodes. K7 → K6
// and K8 → K7 would need 6^5 and 7^6 leaves, so they count on the
// backtracking path, but Hall's condition refutes them at the root in
// no node (517 and 3,620 before the check). M4 → K3 and M5 → K4, which
// the check cannot see, keep the backtracker's trees.
func TestCutsetSearchPinned(t *testing.T) {
	type shape struct {
		path          obs.Counter
		nodes, leaves int64
		hall          int64
	}
	parity := genex.ParityTarget()
	type tc struct {
		name     string
		from, to instance.Pointed
		want     shape
	}
	var cases []tc
	for n := 12; n <= 20; n++ {
		cases = append(cases, tc{fmt.Sprintf("ParityCycle(%d)", n), genex.ParityCycle(n), parity, shape{obs.CtrDispatchCutset, 3, 2, 0}})
	}
	cases = append(cases,
		tc{"K7->K6", genex.Clique(7), genex.Clique(6), shape{obs.CtrDispatchBacktrack, 0, 0, 1}},
		tc{"K8->K7", genex.Clique(8), genex.Clique(7), shape{obs.CtrDispatchBacktrack, 0, 0, 1}},
		tc{"M4->K3", genex.Mycielski(4), genex.Clique(3), shape{obs.CtrDispatchBacktrack, 22, 0, 0}},
		tc{"M5->K4", genex.Mycielski(5), genex.Clique(4), shape{obs.CtrDispatchBacktrack, 7649, 0, 0}},
	)
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			rec := obs.NewRecorder()
			ctx := obs.WithRecorder(WithSearchWorkers(context.Background(), workers), rec)
			if ExistsCtx(ctx, c.from, c.to) {
				t.Fatalf("%s must be unsatisfiable", c.name)
			}
			if rec.Count(c.want.path) != 1 || rec.Count(obs.CtrHomSearches) != 1 {
				t.Errorf("%s, %d workers: did not take the %s path in one search", c.name, workers, c.want.path)
			}
			nodes, leaves, hall := rec.Count(obs.CtrHomNodes), rec.Count(obs.CtrCutsetLeaves), rec.Count(obs.CtrHallRefutations)
			if nodes != c.want.nodes || leaves != c.want.leaves || hall != c.want.hall {
				t.Errorf("%s, %d workers: %d nodes, %d leaves, %d Hall refutations; pinned %d, %d, %d",
					c.name, workers, nodes, leaves, hall, c.want.nodes, c.want.leaves, c.want.hall)
			}
		}
	}
}

// TestExistsAllocs pins an exists check on a warm arena at compact.
// Build's two allocations (the Rep and its seeded domains) on every
// path: it checks the tuple without maps, keeps no witness, and takes
// all search state from the arena, the Hall check's must-differ
// graph included (K6 → K5 is refuted by it).
func TestExistsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of its items, so arena reuse is not measurable")
	}
	var stats DispatchStats
	ctx := WithDispatchStats(compact.WithArena(context.Background(), compact.NewArena()), &stats)
	for _, c := range []struct {
		name     string
		from, to instance.Pointed
		path     int
	}{
		{"P3->C3", genex.DirectedPath(3), genex.DirectedCycle(3), 0},
		{"C3->C3", genex.DirectedCycle(3), genex.DirectedCycle(3), 1},
		{"ParityCycle(4)->ParityTarget", genex.ParityCycle(4), genex.ParityTarget(), 1},
		{"K6->K5", genex.Clique(6), genex.Clique(5), 2},
	} {
		before := [3]int64{}
		before[0], before[1], before[2] = stats.Snapshot()
		n := testing.AllocsPerRun(100, func() { ExistsCtx(ctx, c.from, c.to) })
		after := [3]int64{}
		after[0], after[1], after[2] = stats.Snapshot()
		if after[c.path] == before[c.path] {
			t.Errorf("%s did not take path %d: dispatch stats %v -> %v", c.name, c.path, before, after)
		}
		if n > 2 {
			t.Errorf("ExistsCtx(%s) allocates %.0f times on a warm arena, want at most Build's 2", c.name, n)
		}
	}
}
