package engine

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"extremalcq/internal/store"
)

// wmgSpec is the Example 3.10(2) workload: two weakly most-general
// fitting CQs exist within the default bounds, so a stream emits two
// frames.
func wmgSpec(task string) JobSpec {
	return JobSpec{
		Schema: "R/2,P/1,Q/1", Arity: 0, Kind: "cq", Task: task,
		Neg: []string{"P(a)", "Q(a)"},
	}
}

// slowStreamJob is an enumeration whose first answer arrives almost
// immediately while the full candidate space takes far longer, so tests
// can observe a live stream mid-flight.
func slowStreamJob(t *testing.T) Job {
	t.Helper()
	spec := wmgSpec("weakly-most-general")
	spec.MaxAtoms, spec.MaxVars = 6, 8
	spec.TimeoutMS = 60000
	j, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func buildSpec(t *testing.T, spec JobSpec) Job {
	t.Helper()
	j, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestStreamEnumeratesAnswers checks the streaming happy path: every
// weakly most-general answer arrives as its own in-order frame, and the
// terminal summary matches the one-shot answer list.
func TestStreamEnumeratesAnswers(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()

	s := eng.SubmitStream(context.Background(), buildSpec(t, wmgSpec("weakly-most-general")))
	var got []Answer
	for a := range s.Answers() {
		got = append(got, a)
	}
	res := s.Wait()
	if res.Err != nil {
		t.Fatalf("stream failed: %v", res.Err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d frames, want 2: %+v", len(got), got)
	}
	for i, a := range got {
		if a.Index != i {
			t.Errorf("frame %d has index %d", i, a.Index)
		}
	}
	if !res.Found || len(res.Queries) != 2 {
		t.Errorf("final summary: %+v", res)
	}
	for i, q := range res.Queries {
		if got[i].Query != q {
			t.Errorf("frame %d = %q, summary %q", i, got[i].Query, q)
		}
	}
	st := eng.Stats()
	if st.Streams.Started != 1 || st.Streams.Results != 2 {
		t.Errorf("stream stats: %+v", st.Streams)
	}
	if st.Streams.Active != 0 {
		t.Errorf("streams still active: %d", st.Streams.Active)
	}
	if st.Streams.FirstResult.Count != 1 {
		t.Errorf("first-result latency not recorded: %+v", st.Streams.FirstResult)
	}
}

// TestStreamBasisVerifiesCollectedAnswers checks that a basis stream
// emits the member candidates and the terminal summary reports the
// exact basis verification.
func TestStreamBasisVerifiesCollectedAnswers(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()

	res := eng.DoStream(context.Background(), buildSpec(t, wmgSpec("basis")), nil)
	if res.Err != nil || !res.Found || len(res.Queries) != 2 {
		t.Fatalf("basis stream summary: %+v", res)
	}
}

// TestStreamSingleFrameTask checks that a non-enumeration task degrades
// to a stream of its one-shot result's queries.
func TestStreamSingleFrameTask(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()

	spec := JobSpec{
		Schema: "R/2,P/1", Arity: 1, Kind: "cq", Task: "construct",
		Pos: []string{"R(a,b). R(b,c) @ a"},
		Neg: []string{"P(u) @ u"},
	}
	var frames []Answer
	res := eng.DoStream(context.Background(), buildSpec(t, spec), func(a Answer) bool {
		frames = append(frames, a)
		return true
	})
	if res.Err != nil || !res.Found {
		t.Fatalf("stream failed: %+v", res)
	}
	if len(frames) != 1 || frames[0].Query != res.Queries[0] {
		t.Fatalf("frames = %+v, want the single constructed query %q", frames, res.Queries)
	}
	one := eng.Do(context.Background(), buildSpec(t, spec))
	if one.Queries[0] != frames[0].Query {
		t.Errorf("stream frame %q != one-shot answer %q", frames[0].Query, one.Queries[0])
	}
}

// TestStreamCancelStopsSolver checks disconnect semantics: canceling
// the only subscriber's context mid-stream cancels the underlying
// enumeration promptly, observable as ActiveSolvers returning to zero
// long before the candidate space is exhausted.
func TestStreamCancelStopsSolver(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := eng.SubmitStream(ctx, slowStreamJob(t))

	// First frame proves the enumeration is live.
	select {
	case _, ok := <-s.Answers():
		if !ok {
			t.Fatalf("stream ended before first frame: %+v", s.Wait())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no first frame")
	}
	if eng.Stats().ActiveSolvers != 1 {
		t.Fatalf("active solvers = %d, want 1", eng.Stats().ActiveSolvers)
	}
	cancel()
	res := s.Wait()
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("stream result after cancel: %+v", res)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().ActiveSolvers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("solver still running %v after disconnect", 5*time.Second)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamFollowerReplaysPrefix submits an identical second stream
// while the first is mid-enumeration: the follower must replay the
// leader's emitted prefix and then tail the live search, and both
// subscribers must see the same frames without a second solver launch.
func TestStreamFollowerReplaysPrefix(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := slowStreamJob(t)
	leader := eng.SubmitStream(ctx, job)

	// Wait for the first frame so the flight is demonstrably live.
	first, ok := <-leader.Answers()
	if !ok {
		t.Fatalf("leader ended early: %+v", leader.Wait())
	}

	follower := eng.SubmitStream(ctx, job)
	replayed, ok := <-follower.Answers()
	if !ok {
		// The enumeration finished between the two submissions (possible
		// on a very fast machine); nothing left to assert about tailing.
		t.Skipf("flight completed before the follower attached: %+v", follower.Wait())
	}
	if replayed != first {
		t.Errorf("follower's first frame %+v != leader's %+v", replayed, first)
	}
	st := eng.Stats()
	if st.SolverRuns != 1 {
		t.Errorf("solver runs = %d, want 1 (follower must share the flight)", st.SolverRuns)
	}
	if st.DedupShared != 1 {
		t.Errorf("dedup shared = %d, want 1", st.DedupShared)
	}
	cancel()
	leader.Wait()
	follower.Wait()
}

// TestStreamWarmReplayFromStore completes a stream against a store,
// then re-runs it: the warm run must replay the identical frame list
// from disk with SolverRuns unchanged.
func TestStreamWarmReplayFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := New(Options{Store: st})
	defer eng.Close()

	job := buildSpec(t, wmgSpec("weakly-most-general"))
	var cold []Answer
	res := eng.DoStream(context.Background(), job, func(a Answer) bool {
		cold = append(cold, a)
		return true
	})
	if res.Err != nil || len(cold) != 2 {
		t.Fatalf("cold stream: %+v (frames %+v)", res, cold)
	}
	runs := eng.Stats().SolverRuns

	// The stream persists via the asynchronous write-behind; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Puts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("write-behind never persisted the stream")
		}
		time.Sleep(time.Millisecond)
	}

	var warm []Answer
	warmRes := eng.DoStream(context.Background(), job, func(a Answer) bool {
		warm = append(warm, a)
		return true
	})
	if warmRes.Err != nil {
		t.Fatalf("warm stream: %v", warmRes.Err)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm replay emitted %d frames, cold %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i] != cold[i] {
			t.Errorf("warm frame %d = %+v, cold %+v", i, warm[i], cold[i])
		}
	}
	if got := eng.Stats().SolverRuns; got != runs {
		t.Errorf("warm replay launched solvers: SolverRuns %d -> %d", runs, got)
	}
	if eng.Stats().StoreHits == 0 {
		t.Error("warm replay not counted as a store hit")
	}

	// A one-shot job with the same parameters must not see the stream's
	// record: the keyspaces are disjoint.
	oneRuns := eng.Stats().SolverRuns
	one := eng.Do(context.Background(), job)
	if one.Err != nil {
		t.Fatalf("one-shot: %v", one.Err)
	}
	if got := eng.Stats().SolverRuns; got != oneRuns+1 {
		t.Errorf("one-shot after stream: SolverRuns %d -> %d, want a fresh solve", oneRuns, got)
	}
}

// TestTrySubmitStreamBound checks stream admission control: a stream
// waits in the job queue like any job, so with the one worker leading a
// stream and the one queue slot taken, TrySubmitStream declines instead
// of piling on another solver; SubmitStream blocks like Submit; a slot
// freed by finished streams is reusable.
func TestTrySubmitStreamBound(t *testing.T) {
	eng := New(Options{Workers: 1, QueueSize: 1})
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, ok := eng.TrySubmitStream(ctx, slowStreamJob(t))
	if !ok {
		t.Fatal("first stream must be admitted")
	}
	// Its first frame proves the one worker leads it.
	if _, open := <-s.Answers(); !open {
		t.Fatalf("stream ended early: %+v", s.Wait())
	}
	queued, ok := eng.TrySubmitStream(ctx, slowStreamJob(t))
	if !ok {
		t.Fatal("a stream must be admitted to the free queue slot")
	}
	if _, ok := eng.TrySubmitStream(context.Background(), slowStreamJob(t)); ok {
		t.Fatal("stream admitted past a busy worker and a full queue")
	}
	// SubmitStream blocks like Submit: until the queue has room or its
	// context ends.
	job := slowStreamJob(t)
	blockedCtx, unblock := context.WithCancel(context.Background())
	blocked := make(chan *Stream, 1)
	go func() { blocked <- eng.SubmitStream(blockedCtx, job) }()
	select {
	case <-blocked:
		t.Fatal("SubmitStream returned while the queue was full")
	case <-time.After(50 * time.Millisecond):
	}
	unblock()
	if res := (<-blocked).Wait(); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("blocked stream after its context ended: %+v", res)
	}

	cancel()
	s.Wait()
	queued.Wait()
	// The worker and the slot are free again.
	s2, ok := eng.TrySubmitStream(context.Background(), buildSpec(t, wmgSpec("weakly-most-general")))
	if !ok {
		t.Fatal("freed slot must admit a new stream")
	}
	if res := s2.Wait(); res.Err != nil {
		t.Fatalf("admitted stream failed: %v", res.Err)
	}
}

// TestStreamKeepsAnswersOnProductCandidateError mirrors the one-shot
// search's contract: a candidate-local error (the non-UNP product of
// repeated-tuple examples) is reported on the terminal summary, but the
// verified answers the enumeration emitted stay next to it instead of
// being discarded.
func TestStreamKeepsAnswersOnProductCandidateError(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()

	spec := JobSpec{
		Schema: "R/2,P/1", Arity: 2, Kind: "cq", Task: "weakly-most-general",
		Pos: []string{"P(a) @ a,a"}, // repeated tuple: the product core is non-UNP
		Neg: []string{
			"P(u1). P(u2). P(x2). R(x1,x1) @ x1,x2",
			"P(u1). P(u2). P(x1). R(x2,x2) @ x1,x2",
		},
		MaxAtoms: 2, MaxVars: 2,
	}
	var frames []Answer
	res := eng.DoStream(context.Background(), buildSpec(t, spec), func(a Answer) bool {
		frames = append(frames, a)
		return true
	})
	if res.Err == nil {
		t.Error("the product candidate's non-UNP error must be reported")
	}
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want the enumerated answer: %+v", len(frames), frames)
	}
	if !res.Found || len(res.Queries) != 1 || res.Queries[0] != frames[0].Query {
		t.Errorf("summary must keep the emitted answers next to the error: %+v", res)
	}
}

// TestStreamRejectsInvalidAndClosed mirrors Submit's terminal paths.
func TestStreamRejectsInvalidAndClosed(t *testing.T) {
	eng := New(Options{})
	s := eng.SubmitStream(context.Background(), Job{})
	if res := s.Wait(); res.Err == nil {
		t.Error("invalid job must fail")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	s = eng.SubmitStream(canceled, buildSpec(t, wmgSpec("weakly-most-general")))
	if res := s.Wait(); !errors.Is(res.Err, context.Canceled) {
		t.Errorf("dead context: %+v", res)
	}

	eng.Close()
	s = eng.SubmitStream(context.Background(), buildSpec(t, wmgSpec("weakly-most-general")))
	if res := s.Wait(); !errors.Is(res.Err, ErrClosed) {
		t.Errorf("closed engine: %+v", res)
	}
}

// TestStreamCloseUnblocksSubscribers closes the engine mid-stream and
// checks both that the subscriber resolves with ErrClosed and that
// Close itself returns (no leaked leader blocks the drain).
func TestStreamCloseUnblocksSubscribers(t *testing.T) {
	eng := New(Options{})
	s := eng.SubmitStream(context.Background(), slowStreamJob(t))
	if _, ok := <-s.Answers(); !ok {
		t.Fatalf("stream ended before first frame: %+v", s.Wait())
	}
	done := make(chan struct{})
	go func() {
		eng.Close()
		close(done)
	}()
	res := s.Wait()
	if !errors.Is(res.Err, ErrClosed) && !errors.Is(res.Err, context.Canceled) {
		t.Errorf("result after Close: %+v", res)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestStreamKeepsAnswersWhenCutShort cuts a weakly most-general stream
// short after it sent answers, once by the job's deadline and once by
// Close: the terminal summary must report the error next to the
// answers already sent (found, and the sent frames as its queries),
// as it does for a candidate error.
func TestStreamKeepsAnswersWhenCutShort(t *testing.T) {
	for _, how := range []string{"deadline", "close"} {
		t.Run(how, func(t *testing.T) {
			eng := New(Options{})
			defer eng.Close()
			j := slowStreamJob(t)
			if how == "deadline" {
				j.Timeout = time.Second
			}
			s := eng.SubmitStream(context.Background(), j)
			var frames []string
			for a := range s.Answers() {
				frames = append(frames, a.Query)
				if how == "close" {
					go eng.Close()
				}
			}
			res := s.Wait()
			want := context.DeadlineExceeded
			if how == "close" {
				want = ErrClosed
			}
			if !errors.Is(res.Err, want) {
				t.Fatalf("err %v, want %v", res.Err, want)
			}
			if len(frames) == 0 || !res.Found || !slices.Equal(res.Queries, frames) {
				t.Errorf("sent %q, summary found %v queries %q; want the sent answers", frames, res.Found, res.Queries)
			}
		})
	}
}
