package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"extremalcq/internal/genex"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
)

// parallelHomRow is one worker-count point of the parallel search
// table: the same hard hom search with the compact core's prefix
// splitter bounded to Workers goroutines.
type parallelHomRow struct {
	Workers int     `json:"workers"`
	MS      float64 `json:"ms"`
	Speedup float64 `json:"speedup"` // vs workers=1
}

// parallelHomRecord captures the parallel-search story on a cyclic,
// GAC-resistant workload: the compact core single-threaded and fanned
// out across workers. The random component of the workload is
// generated from Seed, so reruns with the same seed measure the same
// search tree.
type parallelHomRecord struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Rows     []parallelHomRow `json:"rows"`
}

// parallelWorkload builds the measured searches: the unsatisfiable
// parity cycle (every node of the search tree is explored — the
// worst case parallelism must pay off on) plus a seed-derived random
// cyclic pair, so the table also covers an irregular tree shape.
func parallelWorkload(seed int64) []struct{ from, to instance.Pointed } {
	rng := rand.New(rand.NewSource(seed))
	sch := genex.SchemaR()
	return []struct{ from, to instance.Pointed }{
		{genex.ParityCycle(7), genex.ParityTarget()},
		{genex.RandomPointed(rng, sch, 5, 7, 0), genex.RandomPointed(rng, sch, 6, 14, 0)},
	}
}

// timeSearches runs every workload pair once under ctx and returns the
// summed wall time.
func timeSearches(ctx context.Context, ws []struct{ from, to instance.Pointed }) time.Duration {
	start := time.Now()
	for _, w := range ws {
		hom.ExistsCtx(ctx, w.from, w.to)
	}
	return time.Since(start)
}

// parallelHomTable measures the compact parallel splitter against its
// own single-worker run. Dispatch is forced to backtrack so the
// join-tree path cannot absorb the acyclic parts, and no cache is
// attached, so every run performs the full search.
func parallelHomTable(seed int64) {
	fmt.Println("Parallel hom search (compact core prefix splitter)")
	ws := parallelWorkload(seed)
	base := hom.WithDispatchMode(context.Background(), hom.DispatchBacktrack)

	rec := parallelHomRecord{
		Workload: "parity cycle n=7 + seeded random cyclic pair, forced backtrack",
		Seed:     seed,
	}

	var oneWorker time.Duration
	for _, workers := range []int{1, 2, 4} {
		d := timeSearches(hom.WithSearchWorkers(base, workers), ws)
		if workers == 1 {
			oneWorker = d
		}
		r := parallelHomRow{Workers: workers, MS: float64(d) / float64(time.Millisecond)}
		if d > 0 {
			r.Speedup = float64(oneWorker) / float64(d)
		}
		rec.Rows = append(rec.Rows, r)
		row(fmt.Sprintf("parallel/workers=%d", workers), "split search scales with cores",
			fmt.Sprintf("%.2fms (%.2fx vs 1 worker)", r.MS, r.Speedup))
	}
	report.ParallelHom = rec
	fmt.Println()
}
