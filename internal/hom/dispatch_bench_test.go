package hom

import (
	"context"
	"fmt"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
)

// BenchmarkDispatch measures the structure-aware dispatch against the
// forced backtracker. On the α-acyclic parity chains (4-ary links that
// defeat GAC pruning, see genex) the join tree stays flat while the
// backtracker grows ~2^n; on the cyclic parity cycles the cutset
// search branches on {x1, y1} and finishes two join-tree leaves, flat
// too, while the backtracker walks 2^(n-7)−1 nodes. On the cyclic
// M5 → K4 search, whose cut is past the leaf budget, the auto path pays
// the structure probe, memoized on the source's compiled form, on top
// of the same backtracking search; K7 → K6, whose cut is past the
// budget too, is refuted at the root by Hall's condition on both paths.
// nodes/op, the branch nodes per check (0 on the join tree and for a
// root refutation), and leaves/op, the cutset search's join-tree
// leaves, are exact on any host; the times are wall clock.
func BenchmarkDispatch(b *testing.B) {
	forced := WithDispatchMode(context.Background(), DispatchBacktrack)
	run := func(name string, from, to instance.Pointed) {
		for _, mode := range []struct {
			name string
			ctx  context.Context
		}{{"auto", context.Background()}, {"backtrack", forced}} {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				rec := obs.NewRecorder()
				ctx := obs.WithRecorder(mode.ctx, rec)
				for i := 0; i < b.N; i++ {
					if ExistsCtx(ctx, from, to) {
						b.Fatalf("%s must be unsatisfiable", name)
					}
				}
				b.ReportMetric(float64(rec.Count(obs.CtrHomNodes))/float64(b.N), "nodes/op")
				b.ReportMetric(float64(rec.Count(obs.CtrCutsetLeaves))/float64(b.N), "leaves/op")
			})
		}
	}
	parity := genex.ParityTarget()
	for n := 3; n <= 13; n++ {
		run(fmt.Sprintf("chain=%d", n), genex.ParityChain(n), parity)
	}
	for n := 12; n <= 20; n++ {
		run(fmt.Sprintf("cycle=%d", n), genex.ParityCycle(n), parity)
	}
	run("K7->K6", genex.Clique(7), genex.Clique(6))
	run("M5->K4", genex.Mycielski(5), genex.Clique(4))
}
