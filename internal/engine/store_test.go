package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"extremalcq/internal/instance"
	"extremalcq/internal/store"
)

// TestEngineWarmStartFromStore is the restart scenario the persistence
// layer exists for: an engine computes jobs against a store, everything
// is torn down, and a cold engine over a reopened store must serve the
// same fingerprints from disk with zero solver invocations.
func TestEngineWarmStartFromStore(t *testing.T) {
	dir := t.TempDir()
	jobs := dupBatch(t, 1)

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng1 := New(Options{Workers: 4, Store: st1})
	cold := eng1.DoBatch(context.Background(), jobs)
	for i, res := range cold {
		if res.Err != nil {
			t.Fatalf("cold job %d: %v", i, res.Err)
		}
	}
	s1 := eng1.Stats()
	if s1.SolverRuns == 0 || s1.StoreHits != 0 {
		t.Fatalf("cold run stats: %+v", s1)
	}
	// Close order matters: Close drains the write-behind queue, so the
	// puts are on disk before the store shuts down.
	eng1.Close()
	if st := st1.Stats(); st.Puts != int64(len(jobs)) {
		t.Fatalf("store puts = %d, want %d (one per distinct completion)", st.Puts, len(jobs))
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process: reopen the directory, attach a cold engine.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := New(Options{Workers: 4, Store: st2})
	defer eng2.Close()
	warm := eng2.DoBatch(context.Background(), jobs)
	for i, res := range warm {
		if res.Err != nil {
			t.Fatalf("warm job %d: %v", i, res.Err)
		}
		if res.Found != cold[i].Found || fmt.Sprint(res.Queries) != fmt.Sprint(cold[i].Queries) {
			t.Errorf("warm job %d differs from cold: %+v vs %+v", i, warm[i], cold[i])
		}
	}
	s2 := eng2.Stats()
	// The load-bearing claim: the warm path never launched a solver
	// goroutine, never led a flight, and never touched the memo.
	if s2.SolverRuns != 0 {
		t.Errorf("warm engine launched %d solvers, want 0", s2.SolverRuns)
	}
	if s2.DedupLeaders != 0 || s2.DedupShared != 0 {
		t.Errorf("warm engine entered single-flight: %+v", s2)
	}
	if s2.Cache.Hits() != 0 || s2.Cache.HomMisses != 0 {
		t.Errorf("warm engine consulted the memo: %+v", s2.Cache)
	}
	if s2.StoreHits != int64(len(jobs)) {
		t.Errorf("store hits = %d, want %d", s2.StoreHits, len(jobs))
	}
	if s2.Store == nil || s2.Store.Hits != int64(len(jobs)) {
		t.Errorf("store stats not surfaced: %+v", s2.Store)
	}
}

// TestEngineStoreSkipsFailures checks that per-submission fates
// (deadlines) are never persisted: a job that timed out must be
// recomputed, not served its failure from disk.
func TestEngineStoreSkipsFailures(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := New(Options{Workers: 1, Store: st})
	defer eng.Close()

	res := eng.Do(context.Background(), adversarialJob(t, 1)) // 1ns deadline
	if res.Err == nil {
		t.Skip("adversarial job finished within 1ns; nothing to observe")
	}
	eng2 := New(Options{Workers: 1, Store: st})
	defer eng2.Close()
	if got := st.Stats().Puts; got != 0 {
		t.Errorf("failed result persisted: puts = %d", got)
	}
}

// TestEngineStoreLabelRewrite checks that a persisted hit carries the
// *current* submission's label, not the one it was computed under.
func TestEngineStoreLabelRewrite(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := New(Options{Workers: 1, Store: st})

	job := dupBatch(t, 1)[0]
	job.Label = "first"
	if res := eng.Do(context.Background(), job); res.Err != nil {
		t.Fatal(res.Err)
	}
	eng.Close() // flush

	eng2 := New(Options{Workers: 1, Store: st})
	defer eng2.Close()
	job.Label = "second"
	res := eng2.Do(context.Background(), job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Label != "second" {
		t.Errorf("label = %q, want the resubmission's label", res.Label)
	}
	if eng2.Stats().StoreHits != 1 {
		t.Errorf("expected a store hit: %+v", eng2.Stats())
	}
}

// TestQueueWaitStats checks the submit→dispatch latency aggregates.
func TestQueueWaitStats(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	jobs := dupBatch(t, 2)
	for _, res := range eng.DoBatch(context.Background(), jobs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	w := eng.Stats().Wait
	if w.Count != int64(len(jobs)) {
		t.Errorf("wait count = %d, want %d", w.Count, len(jobs))
	}
	if w.MinMS < 0 || w.AvgMS < w.MinMS || w.MaxMS < w.AvgMS {
		t.Errorf("wait aggregates out of order: %+v", w)
	}
}

// TestMemoShardsBehave checks the lock-striped memo against its
// single-stripe configuration: same hits, same verdicts, bounded
// entries.
func TestMemoShardsBehave(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := NewMemoShards(1024, shards)
			ps := benchPointed(t, 32)
			for i, p := range ps {
				m.PutHom(context.Background(), instance.DigestPair(p, ps[(i+1)%len(ps)]), i%2 == 0)
			}
			for i, p := range ps {
				exists, ok := m.GetHom(context.Background(), instance.DigestPair(p, ps[(i+1)%len(ps)]))
				if !ok || exists != (i%2 == 0) {
					t.Fatalf("entry %d: ok=%v exists=%v", i, ok, exists)
				}
			}
			st := m.Stats()
			if st.HomHits != int64(len(ps)) || st.HomMisses != 0 {
				t.Errorf("stats: %+v", st)
			}
			if st.Entries != len(ps) {
				t.Errorf("entries = %d, want %d", st.Entries, len(ps))
			}
			wantShards := shards
			if st.Shards != wantShards {
				t.Errorf("shards = %d, want %d", st.Shards, wantShards)
			}
		})
	}
}

// TestMemoShardBoundHolds floods one class well past the bound and
// checks eviction keeps the total entry count near the requested
// maximum (per-shard rounding allows a small overshoot).
func TestMemoShardBoundHolds(t *testing.T) {
	const max = 64
	m := NewMemoShards(max, 8)
	ps := benchPointed(t, 40)
	for i := range ps {
		for j := range ps {
			m.PutHom(context.Background(), instance.DigestPair(ps[i], ps[j]), false)
		}
	}
	if got, bound := m.Stats().Entries, max+8; got > bound {
		t.Errorf("entries = %d after flood, want <= %d", got, bound)
	}
}

// TestStoreKeyIgnoresTimeout checks that the persistent store serves a
// job resubmitted with a different (or no) timeout: successful answers
// are timeout-independent, so the store key omits it even though the
// single-flight fingerprint keeps it.
func TestStoreKeyIgnoresTimeout(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	job := dupBatch(t, 1)[0]
	job.Timeout = 30 * time.Second
	eng := New(Options{Workers: 1, Store: st})
	if res := eng.Do(context.Background(), job); res.Err != nil {
		t.Fatal(res.Err)
	}
	eng.Close() // flush the write-behind queue

	eng2 := New(Options{Workers: 1, Store: st})
	defer eng2.Close()
	job.Timeout = time.Minute
	if res := eng2.Do(context.Background(), job); res.Err != nil {
		t.Fatal(res.Err)
	}
	job.Timeout = 0
	if res := eng2.Do(context.Background(), job); res.Err != nil {
		t.Fatal(res.Err)
	}
	s := eng2.Stats()
	if s.SolverRuns != 0 || s.StoreHits != 2 {
		t.Errorf("timeout variants missed the store: solver_runs=%d store_hits=%d", s.SolverRuns, s.StoreHits)
	}
}
