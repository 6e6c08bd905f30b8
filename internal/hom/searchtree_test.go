package hom

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/schema"
)

// This file pins what the compact core's propagation must not change.
// Generalized arc consistency has one greatest fixpoint, so however the
// propagator reaches it every search node sees the same domains: the
// search tree (nodes and backtracks), the witness at one worker and the
// FindAll order are properties of the instance, not of the propagator.
// The numbers below were recorded with the full-pass propagator the
// incremental one replaced.

// treeShape runs one backtracking search (dispatch forced off the join
// tree) and returns its verdict and search-tree counters.
func treeShape(from, to instance.Pointed, workers int) (exists bool, nodes, backtracks int64) {
	rec := obs.NewRecorder()
	ctx := WithDispatchMode(context.Background(), DispatchBacktrack)
	ctx = obs.WithRecorder(WithSearchWorkers(ctx, workers), rec)
	_, exists = FindCtx(ctx, from, to)
	return exists, rec.Count(obs.CtrHomNodes), rec.Count(obs.CtrHomBacktracks)
}

// TestSearchTreePinned pins hom_nodes and hom_backtracks on the
// structured families. Satisfiable searches run at one worker, where the
// tree is the DFS up to the first witness; unsatisfiable ones also run
// at two, where the splitter's prefix jobs cover the whole tree, so the
// counts are exact there too. K7 → K6 is refuted at the root by Hall's
// condition, before the first node; the Mycielski graphs are
// triangle-free, so the check cannot see M4 → K3 and M5 → K4, and they
// keep the trees the backtracker walked before it.
func TestSearchTreePinned(t *testing.T) {
	type shape struct {
		workers           int
		nodes, backtracks int64
	}
	parity := genex.ParityTarget()
	cases := []struct {
		name     string
		from, to instance.Pointed
		exists   bool
		want     []shape
	}{
		{"ParityCycle(12)", genex.ParityCycle(12), parity, false, []shape{{1, 31, 31}, {2, 31, 32}}},
		{"ParityCycle(13)", genex.ParityCycle(13), parity, false, []shape{{1, 63, 63}, {2, 63, 64}}},
		{"ParityCycle(14)", genex.ParityCycle(14), parity, false, []shape{{1, 127, 127}, {2, 127, 128}}},
		{"ParityCycle(15)", genex.ParityCycle(15), parity, false, []shape{{1, 255, 255}, {2, 255, 248}}},
		{"ParityCycle(16)", genex.ParityCycle(16), parity, false, []shape{{1, 511, 511}, {2, 511, 504}}},
		{"ParityCycle(17)", genex.ParityCycle(17), parity, false, []shape{{1, 1023, 1023}, {2, 1023, 1016}}},
		{"ParityCycle(18)", genex.ParityCycle(18), parity, false, []shape{{1, 2047, 2047}, {2, 2047, 2040}}},
		{"K7->K6", genex.Clique(7), genex.Clique(6), false, []shape{{1, 0, 0}, {2, 0, 0}}},
		{"M4->K3", genex.Mycielski(4), genex.Clique(3), false, []shape{{1, 22, 22}, {2, 22, 24}}},
		{"M5->K4", genex.Mycielski(5), genex.Clique(4), false, []shape{{1, 7649, 7649}, {2, 7649, 7646}}},
		{"C7->C3", genex.DirectedCycle(7), genex.DirectedCycle(3), false, []shape{{1, 1, 1}, {2, 1, 3}}},
		{"C10->C4", genex.DirectedCycle(10), genex.DirectedCycle(4), false, []shape{{1, 1, 1}, {2, 1, 4}}},
		{"C12->C3", genex.DirectedCycle(12), genex.DirectedCycle(3), true, []shape{{1, 2, 0}}},
		{"C12->C4", genex.DirectedCycle(12), genex.DirectedCycle(4), true, []shape{{1, 2, 0}}},
		{"C15->C5", genex.DirectedCycle(15), genex.DirectedCycle(5), true, []shape{{1, 2, 0}}},
		{"K3->K4", genex.Clique(3), genex.Clique(4), true, []shape{{1, 4, 0}}},
	}
	for _, tc := range cases {
		for _, w := range tc.want {
			exists, nodes, backtracks := treeShape(tc.from, tc.to, w.workers)
			if exists != tc.exists {
				t.Errorf("%s, %d workers: exists=%v, want %v", tc.name, w.workers, exists, tc.exists)
			}
			if nodes != w.nodes || backtracks != w.backtracks {
				t.Errorf("%s, %d workers: %d nodes, %d backtracks; pinned %d, %d",
					tc.name, w.workers, nodes, backtracks, w.nodes, w.backtracks)
			}
		}
	}
}

// pinnedPairs is a fixed corpus for the order pins: the structured
// families plus seeded random pairs over {R/2, P/1, T/3} with pinned
// distinguished tuples.
func pinnedPairs() (names []string, pairs [][2]instance.Pointed) {
	add := func(name string, from, to instance.Pointed) {
		names = append(names, name)
		pairs = append(pairs, [2]instance.Pointed{from, to})
	}
	add("C12->C3", genex.DirectedCycle(12), genex.DirectedCycle(3))
	add("C12->C4", genex.DirectedCycle(12), genex.DirectedCycle(4))
	add("K3->K4", genex.Clique(3), genex.Clique(4))
	add("P3->C5", genex.DirectedPath(3), genex.DirectedCycle(5))
	add("T4->T5", genex.TransitiveTournament(4), genex.TransitiveTournament(5))
	sch := schema.MustNew(
		schema.Relation{Name: "R", Arity: 2},
		schema.Relation{Name: "P", Arity: 1},
		schema.Relation{Name: "T", Arity: 3},
	)
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 60; i++ {
		k := rng.Intn(3)
		from := genex.RandomPointed(rng, sch, 3+rng.Intn(4), 2+rng.Intn(7), k)
		to := genex.RandomPointed(rng, sch, 2+rng.Intn(2), 10+rng.Intn(16), k)
		add(fmt.Sprintf("random #%d", i), from, to)
	}
	return names, pairs
}

// answerDigest hashes a sequence of canonical assignments in order.
func answerDigest(answers []string) string {
	sum := sha256.Sum256([]byte(strings.Join(answers, "\n")))
	return hex.EncodeToString(sum[:8])
}

// TestWitnessAndFindAllOrderPinned pins, over the corpus, the witness
// Find returns at one worker, the order in which FindAll yields every
// answer, at one worker and (by the splitter's prefix-ordered merge, the
// same order) at four, and the size of the enumeration trees at one.
func TestWitnessAndFindAllOrderPinned(t *testing.T) {
	const (
		wantWitnesses = "b32951889eea9d47"
		wantOrder     = "df2694835ae39964"
		wantAnswers   = 253
		wantNodes     = 428
	)
	names, pairs := pinnedPairs()
	base := WithDispatchMode(context.Background(), DispatchBacktrack)
	rec := obs.NewRecorder()
	var witnesses []string
	orders := make(map[int][]string)
	total := 0
	for i, p := range pairs {
		from, to := p[0], p[1]
		h, ok := FindCtx(WithSearchWorkers(base, 1), from, to)
		witnesses = append(witnesses, fmt.Sprintf("%s:%v:%s", names[i], ok, canonAssignment(h)))
		for _, w := range []int{1, 4} {
			ctx := WithSearchWorkers(base, w)
			if w == 1 {
				ctx = obs.WithRecorder(ctx, rec)
			}
			var seq []string
			FindAllCtx(ctx, from, to, func(a Assignment) bool {
				seq = append(seq, canonAssignment(a))
				return true
			})
			if w == 1 {
				total += len(seq)
			}
			orders[w] = append(orders[w], names[i]+"\n"+strings.Join(seq, "\n"))
		}
	}
	if got := answerDigest(witnesses); got != wantWitnesses {
		t.Errorf("witness digest %s, pinned %s", got, wantWitnesses)
	}
	if total != wantAnswers {
		t.Errorf("FindAll yielded %d answers over the corpus, pinned %d", total, wantAnswers)
	}
	if nodes := rec.Count(obs.CtrHomNodes); nodes != wantNodes {
		t.Errorf("FindAll at one worker expanded %d nodes over the corpus, pinned %d", nodes, wantNodes)
	}
	for _, w := range []int{1, 4} {
		if got := answerDigest(orders[w]); got != wantOrder {
			t.Errorf("FindAll order digest at %d workers %s, pinned %s", w, got, wantOrder)
		}
	}
}
