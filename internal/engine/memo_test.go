package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"extremalcq/internal/fitting"
	"extremalcq/internal/genex"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
	"extremalcq/internal/store"
)

// randomExample draws facts over sch with values named prefix0 ..
// prefix(dom-1), and a distinguished tuple of arity k from the active
// domain, so the result is a data example (the shape of the
// benchmark's random examples).
func randomExample(rng *rand.Rand, sch *schema.Schema, prefix string, dom, facts, k int) instance.Pointed {
	in := instance.New(sch)
	rels := sch.Relations()
	for i := 0; i < facts; i++ {
		r := rels[rng.Intn(len(rels))]
		args := make([]instance.Value, r.Arity)
		for j := range args {
			args[j] = instance.Value(fmt.Sprintf("%s%d", prefix, rng.Intn(dom)))
		}
		if err := in.AddFact(r.Name, args...); err != nil {
			panic(err)
		}
	}
	adom := in.Dom()
	tuple := make([]instance.Value, k)
	for i := range tuple {
		tuple[i] = adom[rng.Intn(len(adom))]
	}
	return instance.NewPointed(in, tuple...)
}

// pathExample is a directed R-path of one to three edges from its
// distinguished element, with an optional P on its end.
func pathExample(rng *rand.Rand, sch *schema.Schema, prefix string, k int) instance.Pointed {
	in := instance.New(sch)
	v := func(i int) instance.Value { return instance.Value(fmt.Sprintf("%s%d", prefix, i)) }
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		if err := in.AddFact("R", v(i), v(i+1)); err != nil {
			panic(err)
		}
	}
	if rng.Intn(2) == 0 {
		if err := in.AddFact("P", v(n)); err != nil {
			panic(err)
		}
	}
	return instance.NewPointed(in, []instance.Value{v(0)}[:k]...)
}

// memoJobs returns seeded jobs of the two shapes the memo serves:
// weakly most-general and basis enumerations over small collections
// with tight bounds, whose hom checks pair compiled candidates with
// fresh examples and almost never repeat, and construct, unique and
// exists jobs over shared collections, which repeat products, cores and
// hom checks across tasks.
func memoJobs(rng *rand.Rand) []Job {
	rpq := schema.MustNew(schema.Relation{Name: "R", Arity: 2}, schema.Relation{Name: "P", Arity: 1}, schema.Relation{Name: "Q", Arity: 1})
	rp := schema.MustNew(schema.Relation{Name: "R", Arity: 2}, schema.Relation{Name: "P", Arity: 1})
	var jobs []Job
	for n := 0; n < 48; n++ {
		p := fmt.Sprintf("s%d", n)
		task := TaskWeaklyMostGeneral
		if n%4 == 3 {
			task = TaskBasis
		}
		var pos, neg []instance.Pointed
		for i := 0; i < rng.Intn(2); i++ {
			pos = append(pos, randomExample(rng, rpq, p+"a", 3, 4, 1))
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			neg = append(neg, randomExample(rng, rpq, fmt.Sprintf("%sn%d", p, i), 2, 2, 1))
		}
		jobs = append(jobs, Job{Label: p, Kind: KindCQ, Task: task,
			Examples: fitting.MustExamples(rpq, 1, pos, neg),
			Opts:     fitting.SearchOpts{MaxAtoms: 3, MaxVars: 4}})
		if n%8 != 7 {
			continue
		}
		// After every eighth enumeration, one collection asked three
		// questions: construct and unique core the product of two
		// positives, exists checks the product of three against a path.
		for _, k := range []int{0, 1} {
			p := fmt.Sprintf("r%d_%d", n, k)
			var pos []instance.Pointed
			for i := 0; i < 2; i++ {
				pos = append(pos, randomExample(rng, rp, fmt.Sprintf("%s%c", p, 'a'+i), 4, 6, k))
			}
			neg := []instance.Pointed{randomExample(rng, rp, p+"n", 3, 4, k)}
			e := fitting.MustExamples(rp, k, pos, neg)
			jobs = append(jobs,
				Job{Label: p + "c", Kind: KindCQ, Task: TaskConstruct, Examples: e},
				Job{Label: p + "u", Kind: KindCQ, Task: TaskUnique, Examples: e})
			pos = append(pos, randomExample(rng, rp, p+"c", 6, 10, k))
			jobs = append(jobs, Job{Label: p + "e", Kind: KindCQ, Task: TaskExists,
				Examples: fitting.MustExamples(rp, k, pos, []instance.Pointed{pathExample(rng, rp, p+"p", k)})})
		}
	}
	return jobs
}

// outcome renders everything a submitter sees of a streamed job except
// its timing: the frames, then the terminal Result.
func outcome(eng *Engine, j Job) (string, bool) {
	st := eng.SubmitStream(context.Background(), j)
	var frames []string
	for a := range st.Answers() {
		frames = append(frames, a.Query)
	}
	res := st.Wait()
	return fmt.Sprintf("frames %q found %v queries %q note %q err %v", frames, res.Found, res.Queries, res.Note, res.Err), res.Found
}

// TestMemoCostNotAnswers runs the same seeded jobs through an engine
// with a memo large enough never to evict, through one without a memo,
// and through memo-spill engines restarted over one store, so that
// later jobs fault in what earlier ones spilled. The memo may only
// change cost: every frame and Result must be byte-identical. The
// never-evicting memo's per-class hit and miss counts are pinned, so a
// change to how the memo keys or stores an entry cannot lose (or gain)
// a hit unnoticed.
func TestMemoCostNotAnswers(t *testing.T) {
	jobs := memoJobs(rand.New(rand.NewSource(2003)))
	memo := New(Options{Workers: 1, SearchWorkers: 1, CacheSize: 1 << 20})
	defer memo.Close()
	noMemo := New(Options{Workers: 1, SearchWorkers: 1, CacheSize: -1})
	defer noMemo.Close()

	dir := t.TempDir()
	var spill *Engine
	var st *store.Store
	var faulted SpillStats
	start := func() {
		var err error
		if st, err = store.Open(dir, store.Options{}); err != nil {
			t.Fatal(err)
		}
		spill = New(Options{Workers: 1, SearchWorkers: 1, Store: st, MemoSpill: true})
	}
	stop := func() {
		s := spill.Stats().MemoSpill
		faulted.FaultedHom += s.FaultedHom
		faulted.FaultedCore += s.FaultedCore
		faulted.FaultedProduct += s.FaultedProduct
		spill.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	start()

	answered := 0
	for i, j := range jobs {
		// Restart before every solve-shaped job, so each faults in what
		// its collection's earlier questions spilled, and every eighth
		// job, so enumerations fault in the compiled universe's cores.
		if j.Task != TaskWeaklyMostGeneral && j.Task != TaskBasis || i%8 == 0 {
			stop()
			start()
		}
		want, found := outcome(memo, j)
		if got, _ := outcome(noMemo, j); got != want {
			t.Errorf("%s without the memo:\n got %s\nwant %s", j.Label, got, want)
		}
		if got, _ := outcome(spill, j); got != want {
			t.Errorf("%s through memo spill:\n got %s\nwant %s", j.Label, got, want)
		}
		if found {
			answered++
		}
	}
	stop()
	if answered < len(jobs)/4 {
		t.Errorf("only %d of %d jobs answered; the comparison is too weak", answered, len(jobs))
	}
	if faulted.FaultedHom == 0 || faulted.FaultedCore == 0 || faulted.FaultedProduct == 0 {
		t.Errorf("restarted engines faulted in %+v; every class must be served from the store", faulted)
	}
	// The witness-keeping memo that verdicts replaced counted exactly
	// these core and product lookups on this sequence; keys or entries
	// that lost a hit would show here first. The hom counts are those
	// left once the compiled universe's order settles most of the
	// enumerations' checks without a lookup (154 hits and 12,724
	// misses before it).
	want := CacheStats{HomHits: 10, HomMisses: 1350, CoreHits: 29, CoreMisses: 689, ProductHits: 24, ProductMisses: 25}
	got := memo.Stats().Cache
	got.Entries, got.Shards = 0, 0
	if got != want {
		t.Errorf("memo counts %+v, want %+v", got, want)
	}
	t.Logf("%d jobs, %d answered; faulted in after restarts: %+v", len(jobs), answered, faulted)
}

// TestMemoAllocs pins the memo's hot paths. A memoized hom.ExistsCtx
// hit (key, lookup and counters) allocates nothing; a miss, the Get
// that misses and the Put that follows into a class at its bound,
// allocates at most once.
func TestMemoAllocs(t *testing.T) {
	ps := benchPointed(t, 32)
	for _, p := range ps {
		p.I.BuildIndexes()
	}
	ctx := hom.WithCache(context.Background(), NewMemo(0))
	from, to := ps[0], ps[1]
	hom.ExistsCtx(ctx, from, to)
	if n := testing.AllocsPerRun(1000, func() { hom.ExistsCtx(ctx, from, to) }); n != 0 {
		t.Errorf("a memoized ExistsCtx hit allocates %.2f per call, want 0", n)
	}

	var keys []instance.PairDigest
	for _, a := range ps {
		for _, b := range ps {
			keys = append(keys, instance.DigestPair(a, b))
		}
	}
	m := NewMemo(64)
	bg, i := context.Background(), 0
	miss := func() {
		k := keys[i%len(keys)]
		i++
		if _, ok := m.GetHom(bg, k); !ok {
			m.PutHom(bg, k, i%2 == 0)
		}
	}
	for range keys {
		miss()
	}
	if n := testing.AllocsPerRun(len(keys), miss); n > 1 {
		t.Errorf("a memo miss allocates %.2f per Get and Put, want at most 1", n)
	}
	if s := m.Stats(); s.HomMisses < int64(len(keys)) {
		t.Fatalf("the miss loop missed only %d times; it measures hits", s.HomMisses)
	}
}

// TestMemoAllocsSpilledMiss pins a memo miss with spill on: the fault-in
// probe that misses the store builds its kind-prefixed key on the stack
// and looks it up without allocating, and the spilled verdict shares
// one of two records, so the Get and the Put allocate at most once, for
// the write-behind record's key.
func TestMemoAllocsSpilledMiss(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var keys []instance.PairDigest
	for _, a := range benchPointed(t, 16) {
		a.I.BuildIndexes()
		keys = append(keys, instance.DigestPair(a, a))
	}
	m := NewMemo(len(keys) / 4)
	spilled := 0
	m.spill = &spillSink{store: st, enqueue: func(w storeWrite) bool {
		spilled++
		return true
	}}
	bg, i := context.Background(), 0
	miss := func() {
		k := keys[i%len(keys)]
		i++
		if _, ok := m.GetHom(bg, k); !ok {
			m.PutHom(bg, k, i%2 == 0)
		}
	}
	for range keys {
		miss()
	}
	if n := testing.AllocsPerRun(len(keys), miss); n > 1 {
		t.Errorf("a spilled memo miss allocates %.2f per Get and Put, want at most 1", n)
	}
	if s := m.Stats(); s.HomMisses < int64(len(keys)) || spilled < len(keys) {
		t.Fatalf("the miss loop missed %d times and spilled %d; it measures hits", s.HomMisses, spilled)
	}
}

// streamedDigest is the memo's key for one pointed instance as stores
// written before its array keys hashed it: the instance digest, the
// tuple length, then each length-prefixed tuple value, streamed into
// SHA-256.
func streamedDigest(p instance.Pointed) string {
	h := sha256.New()
	io.WriteString(h, p.I.Fingerprint())
	binary.Write(h, binary.LittleEndian, uint64(len(p.Tuple)))
	for _, a := range p.Tuple {
		binary.Write(h, binary.LittleEndian, uint64(len(a)))
		io.WriteString(h, string(a))
	}
	return string(h.Sum(nil))
}

// encodeWitnessEntry is a hom record as memos that kept witnesses wrote
// it: version 1, the verdict, then the witness's pairs in source order.
func encodeWitnessEntry(h hom.Assignment, exists bool) []byte {
	buf := []byte{1, 0}
	if exists {
		buf[1] = 1
	}
	keys := slices.Sorted(maps.Keys(h))
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		for _, s := range []string{string(k), string(h[k])} {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf
}

// decodeWitnessEntry is the decoder of those memos: it returns the
// witness too, and accepts nothing else.
func decodeWitnessEntry(data []byte) (hom.Assignment, bool, error) {
	if len(data) < 2 || data[0] != 1 || data[1] > 1 {
		return nil, false, fmt.Errorf("bad header %v", data)
	}
	d := instance.NewDecoder(data[2:])
	n, err := d.Count(2)
	if err != nil {
		return nil, false, err
	}
	var h hom.Assignment
	if n > 0 {
		h = make(hom.Assignment, n)
	}
	for i := uint64(0); i < n; i++ {
		from, err := d.String()
		if err != nil {
			return nil, false, err
		}
		to, err := d.String()
		if err != nil {
			return nil, false, err
		}
		if _, dup := h[instance.Value(from)]; dup {
			return nil, false, fmt.Errorf("duplicate source %q", from)
		}
		h[instance.Value(from)] = instance.Value(to)
	}
	return h, data[1] == 1, d.End()
}

// TestMemoSpillReadsWitnessStore opens a store as memos that kept
// witnesses left it: a hom record with its witness, a core and a
// product, each under the key those memos derived. The verdict memo
// must fault all three in and serve them without computing anything,
// and the hom records it writes must read back, under the same keys,
// with that older decoder.
func TestMemoSpillReadsWitnessStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pos, _ := genex.PrimeCycleFamily(3)
	a, b := pos[0], pos[1]
	prod, err := instance.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	core := hom.Core(prod)
	h, ok := hom.Find(a, a)
	if !ok {
		t.Fatal("no identity homomorphism")
	}
	for _, r := range []struct {
		kind byte
		key  string
		val  []byte
	}{
		{store.KindHom, streamedDigest(a) + streamedDigest(a), encodeWitnessEntry(h, true)},
		{store.KindCore, streamedDigest(prod), core.EncodeBinary()},
		{store.KindProduct, streamedDigest(a) + streamedDigest(b), prod.EncodeBinary()},
	} {
		if err := st.PutKind(r.kind, r.key, r.val); err != nil {
			t.Fatal(err)
		}
	}

	eng := New(Options{Workers: 1, Store: st, MemoSpill: true})
	ctx := withEngineCaches(context.Background(), eng.Memo())
	if !hom.ExistsCtx(ctx, a, a) {
		t.Error("the stored verdict a → a was not served")
	}
	if got, err := instance.ProductCtx(ctx, a, b); err != nil || !got.Equal(prod) {
		t.Errorf("product served %v, %v; want the stored product", got, err)
	}
	if got := hom.CoreCtx(ctx, prod); !got.Equal(core) {
		t.Errorf("core served %v, want the stored core", got)
	}
	c, s := eng.Stats().Cache, *eng.Stats().MemoSpill
	if c.HomHits != 1 || c.CoreHits != 1 || c.ProductHits != 1 || totalMisses(c) != 0 {
		t.Errorf("memo %+v; want one hit per class and no computation", c)
	}
	if s.FaultedHom != 1 || s.FaultedCore != 1 || s.FaultedProduct != 1 || s.BadRecords != 0 {
		t.Errorf("spill %+v; want one fault per class and no bad record", s)
	}

	// New records: one verdict each way, under the keys the older memos
	// would look up, readable by their decoder.
	if hom.ExistsCtx(ctx, a, b) || !hom.ExistsCtx(ctx, prod, b) {
		t.Fatal("wrong verdicts for C3 → C5 or C3×C5 → C5")
	}
	eng.Close()
	for _, want := range []struct {
		key    string
		exists bool
	}{
		{streamedDigest(a) + streamedDigest(b), false},
		{streamedDigest(prod) + streamedDigest(b), true},
	} {
		val, ok := st.Probe(store.KindHom, []byte(want.key))
		if !ok {
			t.Fatalf("no hom record under the older key (exists %v)", want.exists)
		}
		h, exists, err := decodeWitnessEntry(val)
		if err != nil || h != nil || exists != want.exists {
			t.Errorf("older decoder read %v: witness %v, exists %v, err %v; want no witness, exists %v",
				val, h, exists, err, want.exists)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
