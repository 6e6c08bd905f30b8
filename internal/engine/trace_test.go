package engine

import (
	"context"
	"testing"
	"time"

	"extremalcq/internal/fitting"
	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/store"
)

// tracedHardJob is a deliberately hard traced job: the existence check
// with the Mycielski graph M5 as its positive and K4 as its negative is
// one refuting hom search, M5 → K4, of 7,649 nodes, in tens of
// milliseconds. M5 is triangle-free with chromatic number 5, so GAC
// prunes along the way but refutes nothing early, and Hall's condition,
// which refutes clique pigeonholes such as K8 → K7 at the root, finds no
// clique to count. M5 is cyclic and its cut is past the leaf budget, so
// the search is the backtracker's.
func tracedHardJob(t *testing.T) Job {
	t.Helper()
	pos, neg := []instance.Pointed{genex.Mycielski(5)}, []instance.Pointed{genex.Clique(4)}
	e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)
	return Job{Kind: KindCQ, Task: TaskExists, Examples: e, Trace: true}
}

// TestTraceHardJobAccountsWallTime is the acceptance test for the
// explain report: on a deliberately hard job the per-phase self times
// must account for at least 90% of the measured wall time, and the
// hom-search progress counters (nodes, backtracks, prunings) must all
// have moved.
func TestTraceHardJobAccountsWallTime(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()

	res := eng.Do(context.Background(), tracedHardJob(t))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("traced job returned no explain report")
	}
	if tr.Shared || tr.StoreHit || tr.Partial {
		t.Fatalf("solo completed job mislabeled: %+v", tr)
	}
	if len(tr.Phases) == 0 || tr.Phases[0].Phase != obs.PhaseSolve.String() {
		t.Fatalf("report must lead with the root solve phase: %+v", tr.Phases)
	}

	var selfSum float64
	for _, p := range tr.Phases {
		if p.Count <= 0 {
			t.Errorf("phase %s reported with zero count", p.Phase)
		}
		if p.SelfMS < 0 || p.SelfMS > p.TotalMS+0.001 {
			t.Errorf("phase %s: self %.3fms exceeds total %.3fms", p.Phase, p.SelfMS, p.TotalMS)
		}
		selfSum += p.SelfMS
	}
	wallMS := float64(res.Elapsed) / float64(time.Millisecond)
	if selfSum < 0.9*wallMS {
		t.Errorf("phase self times cover %.3fms of %.3fms wall (%.0f%%), want >= 90%%",
			selfSum, wallMS, 100*selfSum/wallMS)
	}
	if tr.TotalMS > wallMS+1 {
		t.Errorf("trace total %.3fms exceeds wall %.3fms", tr.TotalMS, wallMS)
	}

	for _, c := range []obs.Counter{obs.CtrHomSearches, obs.CtrHomNodes, obs.CtrHomBacktracks, obs.CtrHomPrunings} {
		if tr.Counters[c.String()] == 0 {
			t.Errorf("hard job left counter %s at zero: %v", c, tr.Counters)
		}
	}
	if len(tr.SlowestSpans) == 0 {
		t.Error("hard job reported no slowest spans")
	}
}

// TestTraceUntracedJobCarriesNoReport checks the default path: without
// Job.Trace the result has no report and the engine never builds a
// recorder.
func TestTraceUntracedJobCarriesNoReport(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()

	res := eng.Do(context.Background(), dupBatch(t, 1)[0])
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Trace != nil {
		t.Fatalf("untraced job carries a trace: %+v", res.Trace)
	}
}

// TestTraceDedupFollowerShared checks trace composition with
// single-flight dedup: followers adopt the leader's finished report
// marked Shared, leaders keep Shared=false, and every traced twin gets
// a report.
func TestTraceDedupFollowerShared(t *testing.T) {
	const n = 8
	eng := New(Options{Workers: n, QueueSize: n})
	defer eng.Close()

	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = tracedHardJob(t)
	}
	results := eng.DoBatch(context.Background(), jobs)

	var leaders, shared int
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if res.Trace == nil {
			t.Fatalf("traced job %d has no report", i)
		}
		if res.Trace.Shared {
			shared++
			// A shared report is still the full leader trace.
			if len(res.Trace.Phases) == 0 {
				t.Errorf("job %d: shared report has no phases", i)
			}
		} else {
			leaders++
		}
	}
	st := eng.Stats()
	if st.DedupShared == 0 {
		t.Fatalf("no job was coalesced onto an in-flight twin: %+v", st)
	}
	if int64(leaders) != st.DedupLeaders || int64(shared) != st.DedupShared {
		t.Errorf("trace sharing disagrees with dedup stats: leaders=%d/%d shared=%d/%d",
			leaders, st.DedupLeaders, shared, st.DedupShared)
	}
}

// TestTraceStoreWarmHit checks trace composition with the persistent
// store: a warm-served job ran no solver, so its report says StoreHit
// with no phases instead of fabricating durations.
func TestTraceStoreWarmHit(t *testing.T) {
	dir := t.TempDir()
	job := dupBatch(t, 1)[0]

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng1 := New(Options{Workers: 1, Store: st1})
	if res := eng1.Do(context.Background(), job); res.Err != nil {
		t.Fatal(res.Err)
	}
	eng1.Close()
	st1.Close()

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := New(Options{Workers: 1, Store: st2})
	defer eng2.Close()

	job.Trace = true
	res := eng2.Do(context.Background(), job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if eng2.Stats().StoreHits == 0 {
		t.Fatal("second engine did not warm-serve from the store")
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("traced warm hit has no report")
	}
	if !tr.StoreHit {
		t.Errorf("warm-served report not marked StoreHit: %+v", tr)
	}
	if len(tr.Phases) != 0 || len(tr.Counters) != 0 {
		t.Errorf("warm hit ran no solver but reports phases/counters: %+v", tr)
	}

	// The untraced twin of the same warm hit stays report-free.
	job.Trace = false
	if res := eng2.Do(context.Background(), job); res.Trace != nil {
		t.Errorf("untraced warm hit carries a trace: %+v", res.Trace)
	}
}

// TestTraceStream checks the streaming analogue: a traced stream's
// terminal result carries the report, a follower tailing the same
// flight gets it marked Shared, and untraced streams stay report-free.
func TestTraceStream(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()

	job := buildSpec(t, wmgSpec("weakly-most-general"))
	job.Trace = true
	res := eng.DoStream(context.Background(), job, nil)
	if res.Err != nil {
		t.Fatalf("stream failed: %v", res.Err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("traced stream has no report")
	}
	if tr.Shared || tr.StoreHit {
		t.Fatalf("stream leader report mislabeled: %+v", tr)
	}
	if len(tr.Phases) == 0 || tr.Phases[0].Phase != obs.PhaseSolve.String() {
		t.Fatalf("stream report must lead with the root solve phase: %+v", tr.Phases)
	}

	job.Trace = false
	if res := eng.DoStream(context.Background(), job, nil); res.Trace != nil {
		t.Errorf("untraced stream carries a trace: %+v", res.Trace)
	}
}

// TestTraceStreamFollowerShared checks that a stream subscriber joining
// an in-flight traced enumeration receives the leader's report marked
// Shared.
func TestTraceStreamFollowerShared(t *testing.T) {
	eng := New(Options{})
	defer eng.Close()

	// A few seconds of enumeration: slow enough for the follower to
	// attach mid-flight, fast enough to drain to the terminal result
	// (the trace rides the terminal frame, so the test must reach it).
	spec := wmgSpec("weakly-most-general")
	spec.MaxAtoms, spec.MaxVars = 5, 6
	spec.TimeoutMS = 60000
	job := buildSpec(t, spec)
	job.Trace = true
	leader := eng.SubmitStream(context.Background(), job)
	if _, ok := <-leader.Answers(); !ok {
		t.Fatalf("leader ended early: %+v", leader.Wait())
	}
	follower := eng.SubmitStream(context.Background(), job)

	for range leader.Answers() {
	}
	for range follower.Answers() {
	}
	lr, fr := leader.Wait(), follower.Wait()
	if lr.Err != nil || fr.Err != nil {
		t.Fatalf("stream errors: leader=%v follower=%v", lr.Err, fr.Err)
	}
	if eng.Stats().DedupShared == 0 {
		t.Skipf("flight completed before the follower attached")
	}
	if lr.Trace == nil || lr.Trace.Shared {
		t.Errorf("leader trace: %+v", lr.Trace)
	}
	if fr.Trace == nil || !fr.Trace.Shared {
		t.Errorf("follower trace not marked shared: %+v", fr.Trace)
	}
}
