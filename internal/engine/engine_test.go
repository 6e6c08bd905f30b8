package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"extremalcq/internal/fitting"
	"extremalcq/internal/genex"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
)

// specs returns a duplicate-heavy batch: nCopies copies each of a CQ
// construction, a CQ existence, a UCQ construction and a tree existence
// job, all over shared workloads.
func dupBatch(t *testing.T, nCopies int) []Job {
	t.Helper()
	var jobs []Job
	base := []JobSpec{
		{
			Label: "cq-construct", Schema: "R/2,P/1", Arity: 1, Kind: "cq", Task: "construct",
			Pos: []string{"R(a,b). R(b,c) @ a", "R(x,y). R(y,z). R(z,x) @ x"},
			Neg: []string{"P(u) @ u"},
		},
		{
			Label: "cq-exists", Schema: "R/2,P/1", Arity: 1, Kind: "cq", Task: "exists",
			Pos: []string{"R(a,b). R(b,c) @ a", "R(x,y). R(y,z). R(z,x) @ x"},
			Neg: []string{"P(u) @ u"},
		},
		{
			Label: "ucq-construct", Schema: "R/2,P/1", Arity: 0, Kind: "ucq", Task: "construct",
			Pos: []string{"R(a,b)", "P(c)"},
			Neg: nil,
		},
		{
			Label: "tree-exists", Schema: "R/2,P/1", Arity: 1, Kind: "tree", Task: "exists",
			Pos: []string{"R(a,b) @ a"},
			Neg: []string{"P(a) @ a"},
		},
	}
	for i := 0; i < nCopies; i++ {
		for _, s := range base {
			j, err := s.Build()
			if err != nil {
				t.Fatalf("build %s: %v", s.Label, err)
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// TestBatchCacheHitsAndParity runs a duplicate-heavy batch on a pool of
// >= 4 workers and checks that (a) the per-engine memo reports cache
// hits and (b) every engine result is identical to the corresponding
// direct library call made without any cache.
func TestBatchCacheHitsAndParity(t *testing.T) {
	jobs := dupBatch(t, 8)

	// Direct results, computed by the dispatch alone: no engine, so no
	// memo, store or flight (Background never unwinds, so err is nil).
	direct := make([]Result, len(jobs))
	for i, j := range jobs {
		direct[i], _ = dispatch(context.Background(), j, false, func(string) {})
	}

	eng := New(Options{Workers: 8, QueueSize: 8})
	defer eng.Close()
	results := eng.DoBatch(context.Background(), jobs)

	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d (%s): %v", i, res.Label, res.Err)
		}
		want := direct[i]
		if res.Found != want.Found {
			t.Errorf("job %d (%s): Found=%v, direct says %v", i, res.Label, res.Found, want.Found)
		}
		if fmt.Sprint(res.Queries) != fmt.Sprint(want.Queries) {
			t.Errorf("job %d (%s): queries %v, direct says %v", i, res.Label, res.Queries, want.Queries)
		}
	}

	st := eng.Stats()
	if st.Cache.Hits() == 0 && st.DedupShared == 0 {
		t.Errorf("duplicate-heavy batch reported neither cache hits nor dedup: %+v", st)
	}
	if st.JobsDone != int64(len(jobs)) {
		t.Errorf("JobsDone = %d, want %d", st.JobsDone, len(jobs))
	}
	if got := st.Tasks["cq/construct"]; got.Count != 8 {
		t.Errorf("cq/construct count = %d, want 8", got.Count)
	}
}

// TestCanceledContextAbortsQueuedJobs submits jobs under an
// already-canceled context and checks they abort with context.Canceled
// without ever executing.
func TestCanceledContextAbortsQueuedJobs(t *testing.T) {
	eng := New(Options{Workers: 1, QueueSize: 16})
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	jobs := dupBatch(t, 2)
	results := eng.DoBatch(ctx, jobs)
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, res.Err)
		}
		if res.Found || len(res.Queries) > 0 {
			t.Errorf("job %d: canceled job carries a result: %+v", i, res)
		}
	}
	// Aborted-in-queue jobs never reach the execution path, so no task
	// latency is recorded for them.
	if st := eng.Stats(); len(st.Tasks) != 0 || st.JobsDone != 0 {
		t.Errorf("canceled jobs were executed: %+v", st)
	}
}

// TestJobTimeout checks that a per-job deadline fails a long-running job
// with context.DeadlineExceeded.
func TestJobTimeout(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()

	pos, neg := genex.PrimeCycleFamily(4)
	e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)
	res := eng.Do(context.Background(), Job{
		Kind: KindCQ, Task: TaskConstruct, Examples: e,
		Timeout: time.Microsecond,
	})
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", res.Err)
	}
}

// TestClosePromptWithInflightJob checks that Close interrupts a running
// job promptly (failing it with ErrClosed) instead of waiting out its
// deadline.
func TestClosePromptWithInflightJob(t *testing.T) {
	eng := New(Options{Workers: 1})
	pos, neg := genex.PrimeCycleFamily(5)
	e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)
	p := eng.Submit(context.Background(), Job{Kind: KindCQ, Task: TaskConstruct, Examples: e})
	time.Sleep(100 * time.Millisecond) // let the worker pick it up
	start := time.Now()
	eng.Close()
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Close took %v with a job in flight", d)
	}
	res := p.Wait()
	if res.Err == nil {
		t.Skip("job finished before Close; nothing to observe")
	}
	if !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", res.Err)
	}
	// The interruptible solver unwinds after Close rather than burning
	// CPU to search completion.
	waitForSolversToExit(t, eng, 2*time.Second)
}

// TestSubmitValidation checks that malformed jobs fail fast.
func TestSubmitValidation(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()

	res := eng.Do(context.Background(), Job{Kind: "nope", Task: TaskExists})
	if res.Err == nil {
		t.Fatal("expected an error for an unknown kind")
	}
	res = eng.Do(context.Background(), Job{Kind: KindCQ, Task: "nope"})
	if res.Err == nil {
		t.Fatal("expected an error for an unknown task")
	}
}

// TestCloseFailsPending checks ErrClosed on post-Close submission.
func TestCloseFailsPending(t *testing.T) {
	eng := New(Options{Workers: 2})
	eng.Close()
	res := eng.Do(context.Background(), dupBatch(t, 1)[0])
	if !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", res.Err)
	}
}

// TestTwoEnginesIsolatedCaches is the regression test for the global
// cache hooks: two concurrently live caching engines must each serve
// repeats from their own memo, and closing one must not disturb the
// other's caching. Under the old process-wide hooks the second engine's
// hook installation stomped the first's, and closing either could
// uninstall the survivor's cache.
func TestTwoEnginesIsolatedCaches(t *testing.T) {
	job := dupBatch(t, 1)[0]

	eng1 := New(Options{Workers: 2})
	eng2 := New(Options{Workers: 2})
	defer eng2.Close()

	for _, eng := range []*Engine{eng1, eng2} {
		for i := 0; i < 2; i++ {
			if res := eng.Do(context.Background(), job); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	h1, h2 := eng1.Stats().Cache.Hits(), eng2.Stats().Cache.Hits()
	if h1 == 0 || h2 == 0 {
		t.Fatalf("both live engines must hit their own memo: eng1=%d eng2=%d", h1, h2)
	}

	// Closing the first engine must leave the second one caching.
	eng1.Close()
	if res := eng2.Do(context.Background(), job); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := eng2.Stats().Cache.Hits(); got <= h2 {
		t.Fatalf("closing a sibling engine broke caching: hits %d -> %d", h2, got)
	}
}

// TestMemoCopies checks that the memo never hands out shared mutable
// state: cached cores are decoded afresh on every get.
func TestMemoCopies(t *testing.T) {
	m := NewMemo(16)
	sch := genex.SchemaR()
	p, err := instance.ParsePointed(sch, "R(a,b). R(b,a) @ a")
	if err != nil {
		t.Fatal(err)
	}
	core := hom.Core(p)
	m.PutCore(context.Background(), p.Digest(), core)
	got1, ok := m.GetCore(context.Background(), p.Digest())
	if !ok {
		t.Fatal("expected a core hit")
	}
	got2, _ := m.GetCore(context.Background(), p.Digest())
	if got1.I == got2.I {
		t.Fatal("GetCore returned a shared instance")
	}
}

// TestJobSpecPartialBounds checks that each unset search bound defaults
// individually: a spec setting only max_atoms must not search with zero
// variables.
func TestJobSpecPartialBounds(t *testing.T) {
	spec := JobSpec{
		Schema: "R/2,P/1,Q/1", Kind: "cq", Task: "weakly-most-general",
		Neg: []string{"P(a)", "Q(a)"}, MaxAtoms: 5,
	}
	j, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{})
	defer eng.Close()
	res := eng.Do(context.Background(), j)
	if res.Err != nil || !res.Found {
		t.Fatalf("search with partial bounds found nothing: %+v", res)
	}
	// The same normalization applies to directly-constructed Jobs whose
	// Opts are left zero (the documented behavior).
	j.Opts = fitting.SearchOpts{}
	res = eng.Do(context.Background(), j)
	if res.Err != nil || !res.Found {
		t.Fatalf("search with zero opts found nothing: %+v", res)
	}
}

// TestEngineCachingDisabled checks that CacheSize < 0 runs jobs with no
// cache attached and leaves the counters untouched.
func TestEngineCachingDisabled(t *testing.T) {
	eng := New(Options{Workers: 2, CacheSize: -1})
	defer eng.Close()
	if eng.Memo() != nil {
		t.Fatal("memo created despite CacheSize < 0")
	}
	res := eng.Do(context.Background(), dupBatch(t, 1)[0])
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := eng.Stats(); st.Cache.Hits() != 0 || st.Cache.HomMisses != 0 {
		t.Errorf("cache counters moved without a cache: %+v", st.Cache)
	}
}

// ---------------------------------------------------------------------
// Interruptibility
// ---------------------------------------------------------------------

// adversarialJob builds a fitting-construction job over the
// prime-cycle family with 4 primes: the positive product has
// 2·3·5·7 = 210 elements and the uninterrupted computation (product,
// negative-example hom checks, core) runs for roughly ten seconds on a
// development machine — several orders of magnitude past any deadline
// used in these tests — so only interruptible solvers return promptly.
func adversarialJob(t *testing.T, timeout time.Duration) Job {
	t.Helper()
	// Size 5: the compact solver core finishes size 4 in a few hundred
	// milliseconds, which is no longer adversarial against the
	// deadlines these tests use.
	pos, neg := genex.PrimeCycleFamily(5)
	e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)
	return Job{Label: "prime5", Kind: KindCQ, Task: TaskConstruct, Examples: e, Timeout: timeout}
}

func waitForSolversToExit(t *testing.T, eng *Engine, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(within)
	for time.Now().Before(deadline) {
		if eng.Stats().ActiveSolvers == 0 {
			return time.Since(start)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("solver goroutines still running after %v: %d active", within, eng.Stats().ActiveSolvers)
	return 0
}

// TestTimeoutStopsSolverPromptly is the goroutine-leak regression test:
// a 10ms deadline on an adversarial instance must not only surface
// context.DeadlineExceeded but actually terminate the solver goroutine,
// observed via the ActiveSolvers completion probe. Before interruptible
// solvers, the abandoned goroutine kept burning CPU for the entire
// ~3^23-node search.
func TestTimeoutStopsSolverPromptly(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()

	start := time.Now()
	res := eng.Do(context.Background(), adversarialJob(t, 10*time.Millisecond))
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", res.Err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timed-out job returned after %v; deadline was 10ms", d)
	}
	// The solver must stop consuming CPU within tens of milliseconds of
	// the deadline; the bound is generous for loaded CI machines.
	settle := waitForSolversToExit(t, eng, 2*time.Second)
	t.Logf("solver exited %v after the result was delivered", settle)
}

// ---------------------------------------------------------------------
// Single-flight dedup
// ---------------------------------------------------------------------

// TestSingleFlightDedup checks that a DoBatch of N identical jobs on a
// cold cache performs exactly one uncached computation: the memo records
// no more misses than a single direct run, the dedup counters account
// for every job, and at least one job was served by coalescing.
//
// The job must outlive its own dispatch window even on a single-CPU
// machine: with a sub-millisecond job, each worker's lead runs to
// completion before the scheduler ever runs the next worker (blocking
// hand-offs keep the worker→solver chain at the front of the run
// queue), so every job leads and nothing coalesces. The 5-prime exists
// check runs for hundreds of milliseconds — far past the ~10ms
// preemption quantum — so the remaining workers are guaranteed CPU
// while the first flight is still live.
func TestSingleFlightDedup(t *testing.T) {
	pos, neg := genex.PrimeCycleFamily(5)
	e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)
	job := Job{Kind: KindCQ, Task: TaskExists, Examples: e}

	// Baseline: one job on a fresh engine establishes the cold-cache
	// miss profile of this computation.
	base := New(Options{Workers: 1})
	if res := base.Do(context.Background(), job); res.Err != nil {
		t.Fatal(res.Err)
	}
	baseStats := base.Stats().Cache
	baseMisses := baseStats.HomMisses + baseStats.CoreMisses + baseStats.ProductMisses
	base.Close()

	const n = 8
	eng := New(Options{Workers: n, QueueSize: n})
	defer eng.Close()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = job
	}
	for i, res := range eng.DoBatch(context.Background(), jobs) {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if !res.Found {
			t.Fatalf("job %d: fitting must exist", i)
		}
	}

	st := eng.Stats()
	misses := st.Cache.HomMisses + st.Cache.CoreMisses + st.Cache.ProductMisses
	if misses > baseMisses {
		t.Errorf("batch of %d identical jobs recorded %d cold misses, single run records %d", n, misses, baseMisses)
	}
	if st.DedupLeaders+st.DedupShared != n {
		t.Errorf("dedup counters account for %d jobs, want %d (leaders=%d shared=%d)",
			st.DedupLeaders+st.DedupShared, n, st.DedupLeaders, st.DedupShared)
	}
	if st.DedupShared == 0 {
		t.Errorf("no job was coalesced onto an in-flight twin: %+v", st)
	}
}

// TestSingleFlightHonorsFollowerDeadline checks that a follower with its
// own tight deadline is released at that deadline even while the leader
// keeps computing, and that the leader's later success is untouched.
func TestSingleFlightHonorsFollowerDeadline(t *testing.T) {
	// Distinct timeouts give distinct fingerprints, so twin adoption
	// never crosses deadline classes; this test pins the simpler
	// property that dedup never delays a job past its own deadline.
	eng := New(Options{Workers: 2})
	defer eng.Close()

	slow := adversarialJob(t, 300*time.Millisecond)
	p1 := eng.Submit(context.Background(), slow)
	p2 := eng.Submit(context.Background(), slow)
	start := time.Now()
	r1, r2 := p1.Wait(), p2.Wait()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deduped pair took %v despite 300ms deadlines", d)
	}
	for i, r := range []Result{r1, r2} {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("job %d: err = %v, want context.DeadlineExceeded", i, r.Err)
		}
	}
	waitForSolversToExit(t, eng, 2*time.Second)
}

// ---------------------------------------------------------------------
// TrySubmit admission
// ---------------------------------------------------------------------

// TestTrySubmitQueueFull checks that TrySubmit declines instead of
// blocking when the queue is full, and that invalid jobs still resolve
// through the returned Pending.
func TestTrySubmitQueueFull(t *testing.T) {
	eng := New(Options{Workers: 1, QueueSize: 1})
	defer eng.Close()

	// One slow job occupies the worker, one fills the queue.
	slow := adversarialJob(t, 30*time.Second)
	running := eng.Submit(context.Background(), slow)
	_ = running
	time.Sleep(50 * time.Millisecond) // let the worker dequeue it
	quick := dupBatch(t, 1)[0]
	if _, ok := eng.TrySubmit(context.Background(), quick); !ok {
		t.Fatal("queue slot free, TrySubmit must accept")
	}
	p, ok := eng.TrySubmit(context.Background(), quick)
	if ok || p != nil {
		t.Fatal("full queue, TrySubmit must decline with ok=false")
	}

	// Invalid jobs are not an admission matter: they resolve immediately.
	p, ok = eng.TrySubmit(context.Background(), Job{Kind: "nope"})
	if !ok || p == nil {
		t.Fatal("invalid job must be accepted and fail through its Pending")
	}
	if res := p.Wait(); res.Err == nil {
		t.Fatal("invalid job must carry its validation error")
	}
}

// TestDispatchStatsAndForceBacktrack checks the engine surfaces its
// hom-dispatch decisions: a default engine routes the acyclic sources
// of a simple exists job through the join-tree path and reports it in
// Stats.Dispatch, while a ForceBacktrack engine records backtracking
// dispatches only — with identical job outcomes.
func TestDispatchStatsAndForceBacktrack(t *testing.T) {
	pos := []instance.Pointed{genex.DirectedPath(3)}
	neg := []instance.Pointed{genex.TransitiveTournament(2)}
	e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)
	job := Job{Kind: KindCQ, Task: TaskExists, Examples: e}

	auto := New(Options{Workers: 1})
	defer auto.Close()
	forced := New(Options{Workers: 1, ForceBacktrack: true})
	defer forced.Close()

	ra := auto.Do(context.Background(), job)
	rf := forced.Do(context.Background(), job)
	if ra.Err != nil || rf.Err != nil {
		t.Fatalf("auto err=%v forced err=%v", ra.Err, rf.Err)
	}
	if ra.Found != rf.Found {
		t.Fatalf("auto Found=%v, forced Found=%v", ra.Found, rf.Found)
	}

	sa, sf := auto.Stats(), forced.Stats()
	if sa.Dispatch.JoinTree == 0 {
		t.Errorf("auto engine recorded no join-tree dispatches: %+v", sa.Dispatch)
	}
	if sf.Dispatch.JoinTree != 0 || sf.Dispatch.Cutset != 0 {
		t.Errorf("forced engine took the join-tree or cutset path: %+v", sf.Dispatch)
	}
	if sf.Dispatch.Backtrack == 0 {
		t.Errorf("forced engine recorded no dispatch decisions: %+v", sf.Dispatch)
	}
}

// TestNegativeMaxVarsIsAnEmptyCandidateSpace: a negative bound disables
// candidate enumeration (Job.Opts), so every enumerating kind × task
// must come back as an ordinary Result, one-shot and streamed, instead
// of panicking the process from inside the enumerator.
func TestNegativeMaxVarsIsAnEmptyCandidateSpace(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()
	for _, kind := range []string{"cq", "ucq", "tree"} {
		for _, task := range []string{"weakly-most-general", "basis"} {
			spec := JobSpec{
				Schema: "R/2", Arity: 1, Kind: kind, Task: task,
				Neg: []string{"R(a,b) @ a"}, MaxVars: -1,
			}
			j, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []Result{
				eng.Do(context.Background(), j),
				eng.DoStream(context.Background(), j, nil),
			} {
				if res.Err != nil || res.Kind != j.Kind || res.Task != j.Task {
					t.Errorf("%s/%s with max_vars -1: %+v", kind, task, res)
				}
			}
		}
	}
}

// TestExistsUniqueCoresOnce: deciding a unique fitting cores the
// positive product once. The Prop 3.11 test and its frontier reuse
// that core, so a product that is not a core (Example 3.33: the loop
// at b absorbs a) costs one core-memo miss, and rendering the answer's
// core is a hit.
func TestExistsUniqueCoresOnce(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()
	j, err := JobSpec{
		Schema: "R/2", Arity: 1, Kind: "cq", Task: "unique",
		Pos: []string{"R(a,b). R(b,a). R(b,b) @ b"},
		Neg: []string{"R(a,b). R(b,a). R(b,b) @ a"},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Do(context.Background(), j)
	if res.Err != nil || !res.Found || len(res.Queries) != 1 || res.Queries[0] != "q(b) :- R(b,b)" {
		t.Fatalf("unique fitting of Example 3.33: %+v", res)
	}
	if c := eng.Stats().Cache; c.CoreMisses != 1 || c.CoreHits != 1 {
		t.Errorf("core memo: %d misses, %d hits; want 1 and 1", c.CoreMisses, c.CoreHits)
	}
}
