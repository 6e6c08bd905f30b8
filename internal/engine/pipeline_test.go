package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"extremalcq/internal/fitting"
	"extremalcq/internal/genex"
	"extremalcq/internal/store"
)

// primeConstruct is a construct job over the 2/3/5/7 prime cycles that
// runs for a few hundred milliseconds without a memo.
func primeConstruct() Job {
	pos, neg := genex.PrimeCycleFamily(4)
	return Job{Kind: KindCQ, Task: TaskConstruct, Examples: fitting.MustExamples(genex.SchemaR(), 0, pos, neg)}
}

// waitStats polls the engine until ok holds for its stats.
func waitStats(t *testing.T, eng *Engine, ok func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st := eng.Stats(); !ok(st); st = eng.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("engine never reached the awaited state: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightOutlivesCanceledSubmitter: a twin that joined a flight gets
// its answer from that flight even when the submitter whose worker
// leads it cancels; the canceled submitter gets its failure at once,
// while the flight still runs.
func TestFlightOutlivesCanceledSubmitter(t *testing.T) {
	eng := New(Options{Workers: 2, CacheSize: -1})
	defer eng.Close()
	job := primeConstruct()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := eng.Submit(ctx, job)
	twin := eng.Submit(context.Background(), job)
	twinDone := make(chan time.Time, 1)
	go func() {
		twin.Wait()
		twinDone <- time.Now()
	}()
	waitStats(t, eng, func(st Stats) bool { return st.ActiveSolvers == 1 && st.DedupShared == 1 })

	cancel()
	if res := first.Wait(); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("canceled submitter: %+v", res)
	}
	firstAt := time.Now()
	if twinAt := <-twinDone; !firstAt.Before(twinAt) {
		t.Errorf("the canceled submitter resolved only after its flight completed")
	}
	res := twin.Wait()
	if res.Err != nil || !res.Found || len(res.Queries) != 1 {
		t.Fatalf("twin: %+v", res)
	}
	if st := eng.Stats(); st.SolverRuns != 1 || st.DedupShared != 1 {
		t.Errorf("solver_runs = %d, dedup_shared = %d; want 1 and 1 (the twin must not recompute)", st.SolverRuns, st.DedupShared)
	}
}

// TestCanceledContextStopsLeadingSolver: a one-shot submitter whose
// worker leads its flight and that no twin joined gets its failure as
// soon as its context ends, and the solver stops.
func TestCanceledContextStopsLeadingSolver(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := eng.Submit(ctx, adversarialJob(t, time.Minute))
	waitStats(t, eng, func(st Stats) bool { return st.ActiveSolvers == 1 })
	cancel()
	if res := p.Wait(); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("canceled submitter: %+v", res)
	}
	waitForSolversToExit(t, eng, 2*time.Second)
}

// openStore opens the store in dir, closing it at the end of the test
// unless the test closes it first.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// streamed runs j as a stream and returns its frames and Result.
func streamed(eng *Engine, j Job) ([]string, Result) {
	var frames []string
	res := eng.DoStream(context.Background(), j, func(a Answer) bool {
		frames = append(frames, a.Query)
		return true
	})
	return frames, res
}

// TestOneShotAndStreamShareStoredAnswer: the one-shot and streamed twins
// of a job compute the same Result, so they share one stored record
// across a restart. A UCQ one-shot job stores its candidate frames next
// to the union, so a later stream replays them.
func TestOneShotAndStreamShareStoredAnswer(t *testing.T) {
	dir := t.TempDir()
	basis := buildSpec(t, wmgSpec("basis"))
	ucq := wmgSpec("weakly-most-general")
	ucq.Kind = "ucq"
	union := buildSpec(t, ucq)

	st := openStore(t, dir)
	cold := New(Options{Store: st})
	_, basisRes := streamed(cold, basis)
	unionRes := cold.Do(context.Background(), union)
	cold.Close()
	st.Close()
	if basisRes.Err != nil || !basisRes.Found || unionRes.Err != nil || !unionRes.Found {
		t.Fatalf("cold runs: streamed basis %+v, one-shot ucq %+v", basisRes, unionRes)
	}
	ref := New(Options{})
	unionFrames, _ := streamed(ref, union)
	ref.Close()
	if len(unionFrames) == 0 {
		t.Fatal("the UCQ search streamed no candidate frames")
	}

	warm := New(Options{Store: openStore(t, dir)})
	defer warm.Close()
	one := warm.Do(context.Background(), basis)
	if one.Err != nil || fmt.Sprint(one.Queries) != fmt.Sprint(basisRes.Queries) {
		t.Errorf("one-shot basis after a streamed one: %+v, want the queries %q", one, basisRes.Queries)
	}
	frames, res := streamed(warm, union)
	if res.Err != nil || fmt.Sprint(frames) != fmt.Sprint(unionFrames) || fmt.Sprint(res.Queries) != fmt.Sprint(unionRes.Queries) {
		t.Errorf("warm UCQ stream: frames %q, %+v; want frames %q, queries %q", frames, res, unionFrames, unionRes.Queries)
	}
	if s := warm.Stats(); s.SolverRuns != 0 || s.StoreHits != 2 {
		t.Errorf("warm twins: solver_runs = %d, store_hits = %d; want 0 and 2", s.SolverRuns, s.StoreHits)
	}
	// A record stores its frames only where they differ from its
	// queries: the UCQ's candidates, not the basis's answers.
	for _, c := range []struct {
		job    Job
		frames bool
	}{{basis, false}, {union, true}} {
		val, ok := warm.opts.Store.Get(c.job.storeKey(false))
		if !ok || strings.Contains(string(val), `"frames"`) != c.frames {
			t.Errorf("%s record %s: want frames stored = %v", c.job.Kind, val, c.frames)
		}
	}
}

// TestOneShotAndStreamFirstAnswerKeptApart: a one-shot weakly
// most-general CQ search stops at its first answer and its stream
// enumerates them all, so neither may be served the other's record;
// each is served its own.
func TestOneShotAndStreamFirstAnswerKeptApart(t *testing.T) {
	dir := t.TempDir()
	job := buildSpec(t, wmgSpec("weakly-most-general"))

	st := openStore(t, dir)
	cold := New(Options{Store: st})
	one := cold.Do(context.Background(), job)
	cold.Close() // flush the one-shot record before the stream looks
	if one.Err != nil || len(one.Queries) != 1 {
		t.Fatalf("one-shot: %+v", one)
	}
	cold = New(Options{Store: st})
	frames, res := streamed(cold, job)
	if len(frames) != 2 || len(res.Queries) != 2 {
		t.Fatalf("stream after a one-shot record: frames %q, %+v", frames, res)
	}
	if s := cold.Stats(); s.SolverRuns != 1 || s.StoreHits != 0 {
		t.Errorf("stream served the one-shot record: solver_runs = %d, store_hits = %d", s.SolverRuns, s.StoreHits)
	}
	cold.Close()

	warm := New(Options{Store: st})
	defer warm.Close()
	if got := warm.Do(context.Background(), job); fmt.Sprint(got.Queries) != fmt.Sprint(one.Queries) {
		t.Errorf("warm one-shot: %+v, want %q", got, one.Queries)
	}
	if got, _ := streamed(warm, job); fmt.Sprint(got) != fmt.Sprint(frames) {
		t.Errorf("warm stream frames %q, want %q", got, frames)
	}
	if s := warm.Stats(); s.SolverRuns != 0 || s.StoreHits != 2 {
		t.Errorf("warm runs: solver_runs = %d, store_hits = %d; want 0 and 2", s.SolverRuns, s.StoreHits)
	}
}

// TestOneShotAndStreamSkipOldRecords: records in the previous store
// shapes (version 1: one-shot results under the plain digest, streams
// under an "s!" prefix) are never served. The one-shot key still
// reaches its old record, which counts as a bad record and is
// recomputed.
func TestOneShotAndStreamSkipOldRecords(t *testing.T) {
	st := openStore(t, t.TempDir())
	job := dupBatch(t, 1)[0]
	bogus := `"q(x) :- P(x)"`
	if err := st.Put(job.storeKey(false), []byte(`{"v":1,"found":true,"queries":[`+bogus+`]}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("s!"+job.storeKey(false), []byte(`{"v":1,"frames":[`+bogus+`],"found":true,"queries":[`+bogus+`]}`)); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Store: st})
	defer eng.Close()
	frames, res := streamed(eng, job)
	if res.Err != nil || !res.Found || strings.Contains(fmt.Sprint(frames, res.Queries), "P(x)") {
		t.Fatalf("stream over old records: frames %q, %+v", frames, res)
	}
	s := eng.Stats()
	if s.SolverRuns != 1 || s.StoreHits != 0 || s.Store.BadRecords != 1 {
		t.Errorf("solver_runs = %d, store_hits = %d, bad_records = %d; want 1, 0 and 1", s.SolverRuns, s.StoreHits, s.Store.BadRecords)
	}
}

// TestCandidateTableBounded: a weakly most-general or basis search whose
// candidate fact table would exceed maxCandidateFacts is refused before
// any solver runs, one-shot and streamed; non-positive bounds stay the
// empty candidate space and other tasks never build the table.
func TestCandidateTableBounded(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()
	for _, kind := range []string{"cq", "ucq", "tree"} {
		for _, task := range []string{"weakly-most-general", "basis"} {
			spec := JobSpec{Schema: "R/2", Arity: 1, Kind: kind, Task: task, Neg: []string{"R(a,b) @ a"}, MaxVars: 65536}
			if _, err := spec.Build(); err == nil || !strings.Contains(err.Error(), "candidate facts") {
				t.Errorf("%s/%s: Build accepted max_vars 65536: %v", kind, task, err)
			}
			j := Job{Kind: Kind(kind), Task: Task(task), Examples: fitting.MustExamples(genex.SchemaR(), 0, nil, nil),
				Opts: fitting.SearchOpts{MaxAtoms: 1, MaxVars: 65}}
			for _, res := range []Result{eng.Do(context.Background(), j), eng.DoStream(context.Background(), j, nil)} {
				if res.Err == nil || !strings.Contains(res.Err.Error(), "candidate facts") {
					t.Errorf("%s/%s with a 4,225-fact table: %+v", kind, task, res)
				}
			}
			j.Opts.MaxVars = 64 // 4,096 facts: the largest table allowed
			if err := j.Validate(); err != nil {
				t.Errorf("%s/%s with a 4,096-fact table: %v", kind, task, err)
			}
			j.Opts.MaxAtoms = -1
			j.Opts.MaxVars = 1 << 40
			if err := j.Validate(); err != nil {
				t.Errorf("%s/%s with max_atoms -1: %v", kind, task, err)
			}
		}
	}
	construct := Job{Kind: KindCQ, Task: TaskConstruct, Examples: fitting.MustExamples(genex.SchemaR(), 0, nil, nil),
		Opts: fitting.SearchOpts{MaxVars: 1 << 40}}
	if err := construct.Validate(); err != nil {
		t.Errorf("construct never builds the table: %v", err)
	}
	if st := eng.Stats(); st.SolverRuns != 0 || st.JobsDone != 0 {
		t.Errorf("refused jobs reached execution: solver_runs = %d, jobs_done = %d", st.SolverRuns, st.JobsDone)
	}
}

// TestSchemaArityBounded: a schema declaring a relation wider than
// maxArity is refused before any solver runs, by Build and by Submit;
// at max_vars 1 such a relation passes the candidate table bound as one
// fact, and the enumeration's per-position recursion overflowed the
// stack. A relation exactly at the bound is accepted.
func TestSchemaArityBounded(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()
	wide := JobSpec{Schema: "P/1,R/6000000", Arity: 1, Kind: "cq", Task: "weakly-most-general",
		Pos: []string{"P(a) @ a", "P(b) @ b"}, Neg: []string{"P(b). P(c) @ c"}, MaxAtoms: 1, MaxVars: 1}
	if _, err := wide.Build(); err == nil || !strings.Contains(err.Error(), "relation R has arity 6000000; at most 1024") {
		t.Errorf("Build accepted R/6000000: %v", err)
	}

	sch, err := ParseSchema(fmt.Sprintf("R/%d", maxArity+1))
	if err != nil {
		t.Fatal(err)
	}
	j := Job{Kind: KindCQ, Task: TaskWeaklyMostGeneral, Examples: fitting.MustExamples(sch, 0, nil, nil),
		Opts: fitting.SearchOpts{MaxAtoms: 1, MaxVars: 1}}
	for _, res := range []Result{eng.Do(context.Background(), j), eng.DoStream(context.Background(), j, nil)} {
		if res.Err == nil || !strings.Contains(res.Err.Error(), "at most 1024") {
			t.Errorf("R/%d submitted: %+v", maxArity+1, res)
		}
	}
	if st := eng.Stats(); st.SolverRuns != 0 || st.JobsDone != 0 {
		t.Errorf("refused jobs reached execution: solver_runs = %d, jobs_done = %d", st.SolverRuns, st.JobsDone)
	}

	atBound := wide
	atBound.Schema = fmt.Sprintf("P/1,R/%d", maxArity)
	if _, err := atBound.Build(); err != nil {
		t.Errorf("Build refused R/%d: %v", maxArity, err)
	}
	atBound.Task = "construct"
	j, err = atBound.Build()
	if err != nil {
		t.Fatal(err)
	}
	if res := eng.Do(context.Background(), j); res.Err != nil || res.Found {
		t.Errorf("R/%d construct: %+v; want no fitting", maxArity, res)
	}
}

// TestWideFrontierStopsAtDeadline: the cq weakly most-general universe
// builds the frontier of every c-acyclic candidate core, and the
// frontier of one R(x,…,x) over an answer variable x has 2^arity − 1
// facts, so at R/18 and max_vars 1 it takes seconds. The replica
// construction checks the job's context before each fact it emits, so a
// 100 ms deadline ends the job within 1 s.
func TestWideFrontierStopsAtDeadline(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()
	j, err := JobSpec{Schema: "P/1,R/18", Arity: 1, Kind: "cq", Task: "weakly-most-general",
		Pos: []string{"P(a) @ a", "P(b) @ b"}, Neg: []string{"P(b). P(c) @ c"},
		MaxAtoms: 1, MaxVars: 1, TimeoutMS: 100}.Build()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res := eng.Do(context.Background(), j)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("the job took %v past its 100 ms deadline; want at most 1 s", elapsed)
	}
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want the deadline", res.Err)
	}
}

// TestOneShotAndStreamShapeCandidateError: when the weakly most-general
// CQ search meets the product candidate's error and still finds an
// answer, the stream keeps its answers next to the error, while the
// one-shot search, which stops at its first answer, reports it found
// but carries no query next to the error.
func TestOneShotAndStreamShapeCandidateError(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()
	job := buildSpec(t, JobSpec{
		Schema: "R/2,P/1", Arity: 2, Kind: "cq", Task: "weakly-most-general",
		Pos: []string{"P(a) @ a,a"}, // repeated tuple: the product core is non-UNP
		Neg: []string{
			"P(u1). P(u2). P(x2). R(x1,x1) @ x1,x2",
			"P(u1). P(u2). P(x1). R(x2,x2) @ x1,x2",
		},
		MaxAtoms: 2, MaxVars: 2,
	})
	frames, streamRes := streamed(eng, job)
	one := eng.Do(context.Background(), job)
	if streamRes.Err == nil || len(frames) != 1 || fmt.Sprint(streamRes.Queries) != fmt.Sprint(frames) {
		t.Fatalf("stream: frames %q, %+v", frames, streamRes)
	}
	if one.Err == nil || one.Err.Error() != streamRes.Err.Error() || !one.Found || len(one.Queries) != 0 {
		t.Errorf("one-shot: %+v; want found, no query, and the stream's error %q", one, streamRes.Err)
	}
}
