package hom

import (
	"context"
	"fmt"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/obs"
)

// BenchmarkParallelHom measures the compact core's prefix splitter on a
// hard instance: the unsatisfiable parity cycle is cyclic (so dispatch
// falls to the backtracking core), GAC-resistant (propagation alone
// cannot refute it), and has no witness (so first-witness-wins luck
// cannot flatter any configuration — every run explores the full
// tree). Speedup across worker counts is bounded by the host's core
// count; CI records whatever the machine gives. nodes/op, the search
// nodes per check, is exact at every worker count, so it reads the
// same on any host.
func BenchmarkParallelHom(b *testing.B) {
	from, to := genex.ParityCycle(17), genex.ParityTarget()
	base := WithDispatchMode(context.Background(), DispatchBacktrack)

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rec := obs.NewRecorder()
			ctx := obs.WithRecorder(WithSearchWorkers(base, workers), rec)
			for i := 0; i < b.N; i++ {
				if ExistsCtx(ctx, from, to) {
					b.Fatal("parity cycle must be unsatisfiable")
				}
			}
			b.ReportMetric(float64(rec.Count(obs.CtrHomNodes))/float64(b.N), "nodes/op")
		})
	}
}
