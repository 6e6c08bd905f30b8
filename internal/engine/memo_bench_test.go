package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
)

// benchPointed builds n small distinct pointed instances over a binary
// schema; instances are kept tiny so fingerprinting stays cheap and the
// measured cost is the memo itself.
func benchPointed(tb testing.TB, n int) []instance.Pointed {
	tb.Helper()
	sch, err := schema.New(schema.Relation{Name: "R", Arity: 2})
	if err != nil {
		tb.Fatal(err)
	}
	ps := make([]instance.Pointed, n)
	for i := range ps {
		p, err := instance.ParsePointed(sch, fmt.Sprintf("R(a%d,b%d) @ a%d", i, i, i))
		if err != nil {
			tb.Fatal(err)
		}
		ps[i] = p
	}
	return ps
}

// BenchmarkMemoParallel drives concurrent hom-check traffic (a
// hit-heavy get/put mix, the shape of a hot batch) through the memo,
// once with a single lock stripe and once with one stripe per
// GOMAXPROCS. The gap between the two configurations is the win from
// lock striping; run with -cpu to see it widen with parallelism.
func BenchmarkMemoParallel(b *testing.B) {
	shardCounts := []int{1, runtime.GOMAXPROCS(0)}
	if shardCounts[1] == 1 {
		shardCounts = shardCounts[:1]
	}
	const nInstances = 64
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m := NewMemoShards(1<<16, shards)
			ps := benchPointed(b, nInstances)
			// Pre-populate so the steady state is hit-dominated.
			for i := range ps {
				for j := range ps {
					m.PutHom(context.Background(), instance.DigestPair(ps[i], ps[j]), true)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					from := ps[i%nInstances]
					k := instance.DigestPair(from, ps[(i*7+3)%nInstances])
					if _, ok := m.GetHom(context.Background(), k); !ok {
						m.PutHom(context.Background(), k, true)
					}
					// A slice of core-class traffic keeps the benchmark
					// honest about multi-class striping.
					if i%8 == 0 {
						m.GetCore(context.Background(), from.Digest())
					}
					i++
				}
			})
		})
	}
}
