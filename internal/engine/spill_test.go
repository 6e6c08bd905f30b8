package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"extremalcq/internal/fitting"
	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/store"
)

// primeJobs returns two jobs over the prime-cycle family that share
// their sub-computations but have distinct fingerprints: a construct
// job and an exists job over the same examples. Both need the positive
// product C3 x C5 and the hom check of that product into the negative
// 2-cycle; only the construct job cores the resulting canonical CQ.
func primeJobs(t *testing.T) (construct, exists Job) {
	t.Helper()
	pos, neg := genex.PrimeCycleFamily(3)
	e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)
	construct = Job{Label: "prime-construct", Kind: KindCQ, Task: TaskConstruct, Examples: e}
	exists = Job{Label: "prime-exists", Kind: KindCQ, Task: TaskExists, Examples: e}
	return construct, exists
}

// totalMisses is the solver-work counter the memo-spill acceptance
// criterion is stated in: every miss is a hom/core/product computation
// actually performed (faulted entries count as hits, not misses).
func totalMisses(c CacheStats) int64 {
	return c.HomMisses + c.CoreMisses + c.ProductMisses
}

// TestMemoSpillAcceleratesNovelJob is the acceptance scenario for memo
// spill: solve job A with -memo-spill, restart (new engine, reopened
// store), then run a *novel* job B that shares sub-computations with A.
// B must perform strictly fewer hom/core/product solver computations
// than the same job from cold — proven by stats counters, not wall
// time — while hitting nothing in the result store (B is genuinely
// novel, so the speedup is entirely memo spill).
func TestMemoSpillAcceleratesNovelJob(t *testing.T) {
	construct, exists := primeJobs(t)

	// Control: job B (exists) from fully cold, no persistence anywhere.
	coldEng := New(Options{Workers: 1})
	coldRes := coldEng.Do(context.Background(), exists)
	if coldRes.Err != nil {
		t.Fatal(coldRes.Err)
	}
	coldMisses := totalMisses(coldEng.Stats().Cache)
	coldEng.Close()
	if coldMisses == 0 {
		t.Fatal("control run performed no memoized computations; the workload is too trivial to measure")
	}

	// Process 1: solve job A with memo spill on.
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng1 := New(Options{Workers: 1, Store: st1, MemoSpill: true})
	if res := eng1.Do(context.Background(), construct); res.Err != nil {
		t.Fatal(res.Err)
	}
	spilled := eng1.Stats().MemoSpill
	if spilled == nil || spilled.Spilled == 0 {
		t.Fatalf("job A spilled no memo entries: %+v", spilled)
	}
	eng1.Close() // drains the write-behind queue
	kinds := st1.Stats().KindEntries
	if kinds["hom"] == 0 || kinds["product"] == 0 {
		t.Fatalf("store holds no spilled memo records: %+v", kinds)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Process 2 (the restart): a cold engine over the reopened store
	// runs novel job B.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := New(Options{Workers: 1, Store: st2, MemoSpill: true})
	defer eng2.Close()
	warmRes := eng2.Do(context.Background(), exists)
	if warmRes.Err != nil {
		t.Fatal(warmRes.Err)
	}
	if warmRes.Found != coldRes.Found {
		t.Fatalf("warm answer %v differs from cold %v", warmRes.Found, coldRes.Found)
	}
	s2 := eng2.Stats()
	if s2.StoreHits != 0 {
		t.Fatalf("job B hit the result store (%d hits); it is not novel and the measurement is void", s2.StoreHits)
	}
	if s2.SolverRuns == 0 {
		t.Fatalf("job B launched no solver; expected a real (if accelerated) computation")
	}
	warmMisses := totalMisses(s2.Cache)
	if warmMisses >= coldMisses {
		t.Errorf("novel job after restart performed %d hom/core/product computations, cold control %d; want strictly fewer",
			warmMisses, coldMisses)
	}
	if s2.MemoSpill == nil || s2.MemoSpill.Faulted() == 0 {
		t.Errorf("no memo entries faulted in: %+v", s2.MemoSpill)
	}
	t.Logf("solver computations: cold=%d warm=%d (faulted=%d)", coldMisses, warmMisses, s2.MemoSpill.Faulted())
}

// TestMemoSpillIgnoredWithoutStore checks the documented degradation:
// MemoSpill without a store (or with the memo disabled) is inert — the
// engine computes normally and reports no spill stats.
func TestMemoSpillIgnoredWithoutStore(t *testing.T) {
	eng := New(Options{Workers: 1, MemoSpill: true})
	defer eng.Close()
	_, exists := primeJobs(t)
	if res := eng.Do(context.Background(), exists); res.Err != nil {
		t.Fatal(res.Err)
	}
	if s := eng.Stats(); s.MemoSpill != nil {
		t.Errorf("spill stats reported without a store: %+v", s.MemoSpill)
	}

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	noMemo := New(Options{Workers: 1, Store: st, CacheSize: -1, MemoSpill: true})
	defer noMemo.Close()
	if res := noMemo.Do(context.Background(), exists); res.Err != nil {
		t.Fatal(res.Err)
	}
	if s := noMemo.Stats(); s.MemoSpill != nil {
		t.Errorf("spill stats reported with the memo disabled: %+v", s.MemoSpill)
	}
}

// TestMemoSpillConcurrentCloseReopenStress drives many goroutines
// writing and faulting memo entries through repeated engine Close /
// store reopen cycles — including Closes racing live writers, whose
// late spill writes must drop cleanly instead of panicking on the
// write-behind channel. Values are deterministic functions of their
// keys, so any entry that survives (in memory or faulted from disk)
// can be checked for corruption; run under -race in CI.
func TestMemoSpillConcurrentCloseReopenStress(t *testing.T) {
	dir := t.TempDir()
	ps := benchPointed(t, 24)
	// The stress goroutines share these instances, so memoize their lazy
	// fingerprints up front (Instance.Fingerprint is documented as not
	// safe to race; engine jobs never share instances across solvers).
	for _, p := range ps {
		p.Fingerprint()
	}
	wantExists := func(i, j int) bool { return (i+j)%2 == 0 }

	const rounds = 4
	for round := 0; round < rounds; round++ {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng := New(Options{Workers: 2, Store: st, MemoSpill: true})
		m := eng.Memo()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					i, j := (g+n)%len(ps), (g+2*n+1)%len(ps)
					m.PutHom(context.Background(), instance.DigestPair(ps[i], ps[j]), wantExists(i, j))
					if exists, ok := m.GetHom(context.Background(), instance.DigestPair(ps[i], ps[j])); ok && exists != wantExists(i, j) {
						t.Errorf("hom (%d,%d): exists=%v, want %v", i, j, exists, wantExists(i, j))
					}
					m.PutCore(context.Background(), ps[i].Digest(), ps[i])
					if c, ok := m.GetCore(context.Background(), ps[i].Digest()); ok && !c.Equal(ps[i]) {
						t.Errorf("core %d corrupted: %v", i, c)
					}
					m.PutProduct(context.Background(), instance.DigestPair(ps[i], ps[j]), ps[i])
					if p, ok := m.GetProduct(context.Background(), instance.DigestPair(ps[i], ps[j])); ok && !p.Equal(ps[i]) {
						t.Errorf("product (%d,%d) corrupted: %v", i, j, p)
					}
				}
			}(g)
		}
		time.Sleep(10 * time.Millisecond)
		if round%2 == 1 {
			// Close the engine under the writers: late spill writes must
			// drop (counted), never panic or deadlock.
			eng.Close()
		}
		close(stop)
		wg.Wait()
		eng.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A quiet final round guarantees a known set of entries is durable
	// (no concurrent Close to race the write-behind drain).
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Workers: 1, Store: st, MemoSpill: true})
	m := eng.Memo()
	for i := 0; i < 8; i++ {
		m.PutHom(context.Background(), instance.DigestPair(ps[i], ps[i+1]), wantExists(i, i+1))
		m.PutCore(context.Background(), ps[i].Digest(), ps[i])
	}
	eng.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh process: everything from the quiet round faults in intact.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := New(Options{Workers: 1, Store: st2, MemoSpill: true})
	defer eng2.Close()
	m2 := eng2.Memo()
	for i := 0; i < 8; i++ {
		exists, ok := m2.GetHom(context.Background(), instance.DigestPair(ps[i], ps[i+1]))
		if !ok {
			t.Fatalf("hom entry %d lost across restart", i)
		}
		if exists != wantExists(i, i+1) {
			t.Errorf("hom entry %d: exists=%v, want %v", i, exists, wantExists(i, i+1))
		}
		c, ok := m2.GetCore(context.Background(), ps[i].Digest())
		if !ok {
			t.Fatalf("core entry %d lost across restart", i)
		}
		if !c.Equal(ps[i]) {
			t.Errorf("core entry %d corrupted: %v", i, c)
		}
	}
	if f := eng2.Stats().MemoSpill.Faulted(); f < 16 {
		t.Errorf("faulted %d entries, want >= 16", f)
	}
}

// TestMemoSpillEntriesSharedBudget checks that spilled memo records and
// result records live under one byte budget: flooding the store with
// memo entries under a tiny MaxBytes evicts old segments instead of
// growing without bound.
func TestMemoSpillEntriesSharedBudget(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{MaxBytes: 1 << 16, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := New(Options{Workers: 1, Store: st, MemoSpill: true})
	m := eng.Memo()
	ps := benchPointed(t, 64)
	for n := 0; n < 40; n++ {
		for i := range ps {
			m.PutProduct(context.Background(), instance.DigestPair(ps[i], ps[(i+n)%len(ps)]), ps[i])
		}
		// Let the write-behind queue drain between waves so the flood
		// reaches disk instead of dropping.
		time.Sleep(2 * time.Millisecond)
	}
	eng.Close()
	stats := st.Stats()
	if stats.Bytes > (1<<16)+(1<<12) {
		t.Errorf("store grew past its budget: %+v", stats)
	}
	if stats.EvictedSegments == 0 {
		t.Errorf("no segments evicted under the flood: %+v", stats)
	}
}

// BenchmarkNovelJobColdVsMemoWarm measures the tentpole claim as a
// benchmark: the same novel job, once from cold and once against a
// store warmed by an overlapping job's memo spill. The custom
// "computations" metric counts hom/core/product solver computations
// (memo misses) — the work counter that, unlike wall time, cannot be
// confounded by machine noise.
func BenchmarkNovelJobColdVsMemoWarm(b *testing.B) {
	pos, neg := genex.PrimeCycleFamily(3)
	e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)
	construct := Job{Kind: KindCQ, Task: TaskConstruct, Examples: e}
	exists := Job{Kind: KindCQ, Task: TaskExists, Examples: e}

	b.Run("cold", func(b *testing.B) {
		var misses int64
		for i := 0; i < b.N; i++ {
			eng := New(Options{Workers: 1})
			if res := eng.Do(context.Background(), exists); res.Err != nil {
				b.Fatal(res.Err)
			}
			misses += totalMisses(eng.Stats().Cache)
			eng.Close()
		}
		b.ReportMetric(float64(misses)/float64(b.N), "computations/op")
	})

	b.Run("memo-warm", func(b *testing.B) {
		dir := b.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		warmEng := New(Options{Workers: 1, Store: st, MemoSpill: true})
		if res := warmEng.Do(context.Background(), construct); res.Err != nil {
			b.Fatal(res.Err)
		}
		warmEng.Close()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var misses int64
		for i := 0; i < b.N; i++ {
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			eng := New(Options{Workers: 1, Store: st, MemoSpill: true})
			if res := eng.Do(context.Background(), exists); res.Err != nil {
				b.Fatal(res.Err)
			}
			misses += totalMisses(eng.Stats().Cache)
			eng.Close()
			st.Close()
		}
		b.ReportMetric(float64(misses)/float64(b.N), "computations/op")
	})
}

// TestMemoSpillPointedFaultIn pins the core/product fault-in path: a
// persisted record that decodes is served, installed and counted once,
// and later lookups hit the installed bytes; a record that does not
// decode is a miss counted as a bad record, and nothing is installed.
func TestMemoSpillPointedFaultIn(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := NewMemo(0)
	m.spill = &spillSink{store: st, enqueue: func(storeWrite) bool { return true }}
	ctx := context.Background()
	pos, _ := genex.PrimeCycleFamily(3)
	a, b := pos[0], pos[1]
	prod, err := instance.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutKind(store.KindProduct, a.Fingerprint()+b.Fingerprint(), prod.EncodeBinary()); err != nil {
		t.Fatal(err)
	}
	if err := st.PutKind(store.KindCore, a.Fingerprint(), []byte("not an encoded instance")); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		got, ok := m.GetProduct(ctx, instance.DigestPair(a, b))
		if !ok || got.Fingerprint() != prod.Fingerprint() {
			t.Fatalf("lookup %d: product served %v (ok %v), want the persisted product", i, got, ok)
		}
	}
	if _, ok := m.GetCore(ctx, a.Digest()); ok {
		t.Fatalf("an undecodable core record was served")
	}
	s := m.spill.stats()
	if s.FaultedProduct != 1 || s.FaultedCore != 0 || s.BadRecords != 1 {
		t.Fatalf("spill stats %+v; want one product faulted in, no core, one bad record", s)
	}
	c := m.Stats()
	if c.ProductHits != 2 || c.CoreMisses != 1 || c.Entries != 1 {
		t.Fatalf("memo stats %+v; want 2 product hits, 1 core miss, 1 entry", c)
	}
}
