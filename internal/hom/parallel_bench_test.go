package hom

import (
	"context"
	"fmt"
	"testing"

	"extremalcq/internal/genex"
)

// BenchmarkParallelHom measures the compact core's prefix splitter on a
// hard instance: the unsatisfiable parity cycle is cyclic (so dispatch
// falls to the backtracking core), GAC-resistant (propagation alone
// cannot refute it), and has no witness (so first-witness-wins luck
// cannot flatter any configuration — every run explores the full
// tree). Speedup across worker counts is bounded by the host's core
// count; CI records whatever the machine gives.
func BenchmarkParallelHom(b *testing.B) {
	from, to := genex.ParityCycle(17), genex.ParityTarget()
	base := WithDispatchMode(context.Background(), DispatchBacktrack)

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := WithSearchWorkers(base, workers)
			for i := 0; i < b.N; i++ {
				if ExistsCtx(ctx, from, to) {
					b.Fatal("parity cycle must be unsatisfiable")
				}
			}
		})
	}
}
