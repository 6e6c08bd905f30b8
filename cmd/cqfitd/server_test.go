package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"extremalcq/internal/engine"
	"extremalcq/internal/store"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4})
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestBatchRoundTrip(t *testing.T) {
	ts := newTestServer(t)

	req := map[string]any{
		"jobs": []engine.JobSpec{
			{
				Label: "construct", Schema: "R/2,P/1", Arity: 1, Kind: "cq", Task: "construct",
				Pos: []string{"R(a,b). R(b,c) @ a"},
				Neg: []string{"P(u) @ u"},
			},
			{
				Label: "verify", Schema: "R/2,P/1", Arity: 1, Kind: "cq", Task: "verify",
				Pos:   []string{"R(a,b). R(b,c) @ a"},
				Query: "q(x) :- R(x,y)",
			},
			{
				Label: "broken", Schema: "", Kind: "cq", Task: "exists",
			},
		},
	}
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if r := out.Results[0]; !r.Found || len(r.Queries) != 1 || !strings.Contains(r.Queries[0], ":-") {
		t.Errorf("construct result: %+v", r)
	}
	if r := out.Results[1]; !r.Found || r.Error != "" {
		t.Errorf("verify result: %+v", r)
	}
	if r := out.Results[2]; r.Error == "" {
		t.Errorf("broken spec must report its build error: %+v", r)
	}
}

func TestSingleJobAndStats(t *testing.T) {
	ts := newTestServer(t)

	spec := engine.JobSpec{
		Schema: "R/2", Arity: 0, Kind: "cq", Task: "exists",
		Pos: []string{"R(a,b)"},
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var res resultJSON
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Error != "" {
		t.Fatalf("exists result: %+v", res)
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Engine.JobsDone < 1 {
		t.Errorf("stats report %d jobs done, want >= 1", stats.Engine.JobsDone)
	}
	if _, ok := stats.Engine.Tasks["cq/exists"]; !ok {
		t.Errorf("stats missing cq/exists latency: %+v", stats.Engine.Tasks)
	}
}

// TestQueueFull429 checks admission control: with the worker pinned by
// a slow job and the queue full, POST /v1/jobs sheds load with 429 and
// a Retry-After hint instead of blocking the handler.
func TestQueueFull429(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, QueueSize: 1})
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	// A job slow enough to pin the single worker: existence over the
	// prime-cycle family is product-dominated. The server's own timeout
	// field keeps it bounded if the test outlives expectations.
	slow := engine.JobSpec{
		Schema: "R/2", Arity: 0, Kind: "cq", Task: "construct",
		Pos: []string{
			"R(a0,a1). R(a1,a0)",
			"R(b0,b1). R(b1,b2). R(b2,b0)",
			"R(c0,c1). R(c1,c2). R(c2,c3). R(c3,c4). R(c4,c0)",
			"R(d0,d1). R(d1,d2). R(d2,d3). R(d3,d4). R(d4,d5). R(d5,d6). R(d6,d0)",
		},
		TimeoutMS: 30000,
	}
	job, err := slow.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Pin the worker, then fill the one queue slot.
	eng.Submit(context.Background(), job)
	time.Sleep(50 * time.Millisecond)
	eng.Submit(context.Background(), job)

	quick := engine.JobSpec{
		Schema: "R/2", Arity: 0, Kind: "cq", Task: "exists",
		Pos: []string{"R(a,b)"},
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", quick)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After hint")
	}

	// A batch refused in its entirety gets the same treatment.
	resp = postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": []engine.JobSpec{quick, quick}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch status = %d, want 429", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": []any{}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", resp.StatusCode)
	}
}

// TestCandidateTableTooLarge400: search bounds whose candidate fact
// table would exhaust memory (65,536² facts over R/2) are a bad job,
// refused with 400 on both job endpoints before anything is built.
func TestCandidateTableTooLarge400(t *testing.T) {
	ts := newTestServer(t)
	spec := engine.JobSpec{
		Schema: "R/2", Arity: 1, Kind: "cq", Task: "weakly-most-general",
		Neg: []string{"R(a,b) @ a"}, MaxVars: 65536,
	}
	for _, path := range []string{"/v1/jobs", "/v1/jobs/stream"} {
		resp := postJSON(t, ts.URL+path, spec)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "candidate facts") {
			t.Errorf("%s: status = %d, body %s; want 400 naming the candidate facts", path, resp.StatusCode, body)
		}
	}
}

// TestWideArity400: a schema relation wider than the engine's arity
// bound is a bad job, refused with 400 on both job endpoints, and the
// server keeps serving. At max_vars 1 the relation passes the candidate
// table bound as one fact, and the enumeration's per-position recursion
// overflowed the stack and killed the process.
func TestWideArity400(t *testing.T) {
	ts := newTestServer(t)
	wide := `{"schema":"P/1,R/6000000","arity":1,"kind":"cq","task":"weakly-most-general",` +
		`"pos":["P(a) @ a","P(b) @ b"],"neg":["P(b). P(c) @ c"],"max_atoms":1,"max_vars":1}`
	for _, path := range []string{"/v1/jobs", "/v1/jobs/stream"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(wide))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "arity 6000000; at most 1024") {
			t.Errorf("%s: status = %d, body %s; want 400 naming the arity bound", path, resp.StatusCode, body)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", engine.JobSpec{Schema: "R/2", Kind: "cq", Task: "exists", Pos: []string{"R(a,b)"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("job after the refusal: status = %d, want 200", resp.StatusCode)
	}
}

// wmgStreamSpec is an enumeration workload with two weakly most-general
// answers within the default bounds.
func wmgStreamSpec() engine.JobSpec {
	return engine.JobSpec{
		Schema: "R/2,P/1,Q/1", Arity: 0, Kind: "cq", Task: "weakly-most-general",
		Neg: []string{"P(a)", "Q(a)"},
	}
}

// TestStreamNDJSON posts a streaming job and checks the wire format:
// every line is a well-formed JSON frame, answer frames carry in-order
// indexes and queries, and the last line is the terminal frame with the
// result count.
func TestStreamNDJSON(t *testing.T) {
	ts := newTestServer(t)

	resp := postJSON(t, ts.URL+"/v1/jobs/stream", wmgStreamSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("content type %q, want NDJSON", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d NDJSON lines, want 2 answers + terminal:\n%s", len(lines), body)
	}
	for i, line := range lines[:2] {
		var frame streamAnswerFrame
		if err := json.Unmarshal([]byte(line), &frame); err != nil {
			t.Fatalf("frame %d is not valid JSON: %v (%q)", i, err, line)
		}
		if frame.Index != i || !strings.Contains(frame.Query, ":-") {
			t.Errorf("frame %d: %+v", i, frame)
		}
	}
	var final streamFinalFrame
	if err := json.Unmarshal([]byte(lines[2]), &final); err != nil {
		t.Fatalf("terminal frame: %v (%q)", err, lines[2])
	}
	if !final.Done || !final.Found || final.Results != 2 || final.Error != "" {
		t.Errorf("terminal frame: %+v", final)
	}
	if len(final.Queries) != 2 {
		t.Errorf("terminal frame must carry the final answer list: %+v", final)
	}
}

// TestStreamUCQFinalFrameCarriesUnion: the most-general UCQ search
// streams candidate disjuncts, so the actual answer — the verified
// union — must travel in the terminal frame's queries.
func TestStreamUCQFinalFrameCarriesUnion(t *testing.T) {
	ts := newTestServer(t)

	spec := engine.JobSpec{
		Schema: "R/2,P/1,Q/1", Arity: 0, Kind: "ucq", Task: "weakly-most-general",
		Neg: []string{"P(a)", "Q(a)"},
	}
	resp := postJSON(t, ts.URL+"/v1/jobs/stream", spec)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	var final streamFinalFrame
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("terminal frame: %v (%q)", err, lines[len(lines)-1])
	}
	if !final.Found || len(final.Queries) != 1 || !strings.Contains(final.Queries[0], "∪") {
		t.Errorf("terminal frame must carry the verified union: %+v", final)
	}
}

// TestStreamDeadlineKeepsAnswers: a weakly most-general stream cut
// short by its deadline after it sent answers ends with a terminal
// frame that reports the deadline next to those answers, not
// "found": false.
func TestStreamDeadlineKeepsAnswers(t *testing.T) {
	ts := newTestServer(t)

	spec := wmgStreamSpec()
	spec.MaxAtoms, spec.MaxVars, spec.TimeoutMS = 6, 8, 1000
	resp := postJSON(t, ts.URL+"/v1/jobs/stream", spec)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	var final streamFinalFrame
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("terminal frame: %v (%q)", err, lines[len(lines)-1])
	}
	sent := len(lines) - 1
	if sent == 0 || !final.Done || !final.Found || final.Results != sent || len(final.Queries) != sent ||
		final.Error != context.DeadlineExceeded.Error() {
		t.Errorf("%d answer frames, then terminal frame %+v; want found, the sent answers and the deadline", sent, final)
	}
}

// TestStreamAdmissionControl: a stream waits in the job queue like any
// job, so with the one worker leading a stream and the one queue slot
// taken the streaming endpoint sheds load with 429 + Retry-After, the
// refusal is counted, and a slot freed by disconnected streams admits a
// new stream.
func TestStreamAdmissionControl(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, QueueSize: 1})
	srv := newServer(eng)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	slow := wmgStreamSpec()
	slow.MaxAtoms, slow.MaxVars = 6, 8
	slow.TimeoutMS = 60000
	buf, err := json.Marshal(slow)
	if err != nil {
		t.Fatal(err)
	}
	ctx, disconnect := context.WithCancel(context.Background())
	defer disconnect()
	open := func() *http.Response {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs/stream", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := open()
	defer resp.Body.Close()
	// First frame received: the one worker demonstrably leads it.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("reading first frame: %v", err)
	}
	// An admitted stream commits its 200 at once, even while it waits
	// in the queue.
	queued := open()
	defer queued.Body.Close()
	if queued.StatusCode != http.StatusOK {
		t.Fatalf("queued stream: status = %d, want 200", queued.StatusCode)
	}

	refused := postJSON(t, ts.URL+"/v1/jobs/stream", wmgStreamSpec())
	refused.Body.Close()
	if refused.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third stream: status = %d, want 429", refused.StatusCode)
	}
	if refused.Header.Get("Retry-After") == "" {
		t.Error("429 stream refusal missing Retry-After")
	}
	if srv.rejected.Load() != 1 {
		t.Errorf("rejected counter = %d, want 1", srv.rejected.Load())
	}

	// Disconnecting both streams frees the worker and the queue slot.
	disconnect()
	deadline := time.Now().Add(10 * time.Second)
	for {
		next := postJSON(t, ts.URL+"/v1/jobs/stream", wmgStreamSpec())
		body, err := io.ReadAll(next.Body)
		next.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if next.StatusCode == http.StatusOK {
			if !strings.Contains(string(body), `"done":true`) {
				t.Errorf("admitted stream did not complete: %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no stream admitted 10s after the disconnects: status %d", next.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamFlushesBeforeCompletion reads the stream incrementally on a
// workload whose enumeration takes far longer than its first answer:
// receiving a parseable first frame while the search is still running
// proves each frame is flushed as it is produced, and closing the
// response mid-stream must cancel the underlying solver promptly
// (ActiveSolvers probe). The server is mounted behind accessLog, as
// cqfitd serves it, so the flush must pass through its statusRecorder.
func TestStreamFlushesBeforeCompletion(t *testing.T) {
	eng := engine.New(engine.Options{})
	ts := httptest.NewServer(accessLog(slog.New(slog.NewTextHandler(io.Discard, nil)), newServer(eng)))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	spec := wmgStreamSpec()
	spec.MaxAtoms, spec.MaxVars = 6, 8 // huge candidate space; first answer is near-instant
	spec.TimeoutMS = 60000
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/stream", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("reading first frame: %v", err)
	}
	var frame streamAnswerFrame
	if err := json.Unmarshal([]byte(line), &frame); err != nil {
		t.Fatalf("first frame not valid JSON: %v (%q)", err, line)
	}
	if frame.Query == "" {
		t.Fatalf("first frame carries no query: %q", line)
	}
	// The enumeration is still running: the frame was flushed mid-search.
	if got := eng.Stats().ActiveSolvers; got != 1 {
		t.Fatalf("active solvers = %d while mid-stream, want 1", got)
	}

	// Disconnect. The server observes r.Context() being canceled and the
	// engine cancels the enumeration: ActiveSolvers returns to zero long
	// before the candidate space could be exhausted.
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().ActiveSolvers != 0 {
		if time.Now().After(deadline) {
			t.Fatal("solver still running 5s after client disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamWarmReplayFromStore re-posts a completed stream against a
// store-backed engine: the warm run must replay the identical frames
// with SolverRuns unchanged.
func TestStreamWarmReplayFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Store: st})
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		st.Close()
	})

	read := func() string {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/jobs/stream", wmgStreamSpec())
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	cold := read()
	runs := eng.Stats().SolverRuns
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Puts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("write-behind never persisted the stream")
		}
		time.Sleep(time.Millisecond)
	}

	warm := read()
	if got := eng.Stats().SolverRuns; got != runs {
		t.Errorf("warm stream launched solvers: SolverRuns %d -> %d", runs, got)
	}
	// Identical frames modulo the elapsed_ms of the terminal line.
	coldLines, warmLines := strings.Split(cold, "\n"), strings.Split(warm, "\n")
	if len(coldLines) != len(warmLines) {
		t.Fatalf("warm replay has %d lines, cold %d", len(warmLines), len(coldLines))
	}
	for i := range coldLines[:len(coldLines)-2] {
		if coldLines[i] != warmLines[i] {
			t.Errorf("line %d differs:\ncold %s\nwarm %s", i, coldLines[i], warmLines[i])
		}
	}
}

// TestMetricsEndpoint checks the Prometheus text exposition: after one
// job, the counter families exist with the expected values, and the
// store families appear when (and only when) a store is attached.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)

	spec := engine.JobSpec{
		Schema: "R/2", Arity: 0, Kind: "cq", Task: "exists",
		Pos: []string{"R(a,b)"},
	}
	postJSON(t, ts.URL+"/v1/jobs", spec).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"cqfitd_jobs_done_total 1",
		"cqfitd_jobs_failed_total 0",
		"cqfitd_rejected_total 0",
		"cqfitd_dedup_leaders_total 1",
		"cqfitd_active_solvers 0",
		"cqfitd_solver_runs_total 1",
		`cqfitd_cache_misses_total{class="hom"}`,
		"cqfitd_queue_wait_seconds_count 1",
		`cqfitd_queue_wait_seconds_bucket{le="+Inf"} 1`,
		"cqfitd_job_duration_seconds_count 1",
		`cqfitd_task_duration_seconds_count{task="cq/exists"} 1`,
		`cqfitd_task_jobs_total{task="cq/exists"} 1`,
		`cqfitd_hom_dispatch_total{path="jointree"}`,
		`cqfitd_hom_dispatch_total{path="cutset"}`,
		`cqfitd_hom_dispatch_total{path="backtrack"}`,
		"# TYPE cqfitd_jobs_done_total counter",
		"# TYPE cqfitd_job_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// No store attached: the store families must be absent.
	if strings.Contains(text, "cqfitd_store_") {
		t.Errorf("/metrics exports store families without a store:\n%s", text)
	}
}

// TestMetricsWithStore checks that the store gauges are exported and
// that a warm hit moves them.
func TestMetricsWithStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2, Store: st})
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		st.Close()
	})

	spec := engine.JobSpec{
		Schema: "R/2", Arity: 0, Kind: "cq", Task: "construct",
		Pos: []string{"R(a,b)"},
	}
	postJSON(t, ts.URL+"/v1/jobs", spec).Body.Close()
	// The result is persisted by the asynchronous write-behind; wait for
	// the drain so the repeat is deterministically a store hit.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Puts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("write-behind never persisted the first result")
		}
		time.Sleep(time.Millisecond)
	}
	postJSON(t, ts.URL+"/v1/jobs", spec).Body.Close() // warm repeat

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"cqfitd_store_hits_total 1",
		"cqfitd_store_misses_total 1",
		"cqfitd_store_bytes",
		"cqfitd_store_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// /v1/stats agrees.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Engine.Store == nil || stats.Engine.Store.Hits != 1 {
		t.Errorf("/v1/stats store block: %+v", stats.Engine.Store)
	}
	if stats.Engine.StoreHits != 1 {
		t.Errorf("/v1/stats store_hits = %d, want 1", stats.Engine.StoreHits)
	}
}

// TestWriteJSONEncodeFailure checks the buffered encoding path: a value
// that cannot marshal yields a clean 500 with a JSON error body, never
// a truncated 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("500 body is not JSON: %v (%q)", err, rec.Body.String())
	}
	if out["error"] == "" {
		t.Errorf("500 body carries no error: %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]string{"ok": "yes"})
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy value: status = %d, want 200", rec.Code)
	}
}

// TestBatchPartialRefusalCounts fills the queue so a batch is only
// partially admitted, and checks that every refused job lands in the
// rejected counter — not just fully refused batches.
func TestBatchPartialRefusalCounts(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, QueueSize: 2})
	srv := newServer(eng)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	slow := engine.JobSpec{
		Schema: "R/2", Arity: 0, Kind: "cq", Task: "construct",
		Pos: []string{
			"R(a0,a1). R(a1,a0)",
			"R(b0,b1). R(b1,b2). R(b2,b0)",
			"R(c0,c1). R(c1,c2). R(c2,c3). R(c3,c4). R(c4,c0)",
			"R(d0,d1). R(d1,d2). R(d2,d3). R(d3,d4). R(d4,d5). R(d5,d6). R(d6,d0)",
		},
		// Short deadline: the admitted batch job below waits behind both
		// slow jobs, so their timeout bounds this test's runtime. 2s is
		// still orders of magnitude beyond the 50ms pinning window.
		TimeoutMS: 2000,
	}
	job, err := slow.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Pin the worker, then occupy one of the two queue slots: the batch
	// below gets exactly one job in before the queue refuses the rest.
	eng.Submit(context.Background(), job)
	time.Sleep(50 * time.Millisecond)
	eng.Submit(context.Background(), job)

	quick := engine.JobSpec{Schema: "R/2", Arity: 0, Kind: "cq", Task: "exists", Pos: []string{"R(a,b)"}, TimeoutMS: 30000}
	resp := postJSON(t, ts.URL+"/v1/batch", map[string]any{"jobs": []engine.JobSpec{quick, quick, quick}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partially admitted batch: status = %d, want 200", resp.StatusCode)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	refused := 0
	for _, r := range out.Results {
		if r.Error == engine.ErrQueueFull.Error() {
			refused++
		}
	}
	if refused != 2 {
		t.Fatalf("refused %d of 3 jobs in place, want 2: %+v", refused, out.Results)
	}
	if got := srv.rejected.Load(); got != int64(refused) {
		t.Errorf("rejected counter = %d, want %d (every refused job counts)", got, refused)
	}
}

// TestRejected429Counter checks that load shedding is counted and
// exported.
func TestRejected429Counter(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, QueueSize: 1})
	srv := newServer(eng)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	slow := engine.JobSpec{
		Schema: "R/2", Arity: 0, Kind: "cq", Task: "construct",
		Pos: []string{
			"R(a0,a1). R(a1,a0)",
			"R(b0,b1). R(b1,b2). R(b2,b0)",
			"R(c0,c1). R(c1,c2). R(c2,c3). R(c3,c4). R(c4,c0)",
			"R(d0,d1). R(d1,d2). R(d2,d3). R(d3,d4). R(d4,d5). R(d5,d6). R(d6,d0)",
		},
		TimeoutMS: 30000,
	}
	job, err := slow.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng.Submit(context.Background(), job)
	time.Sleep(50 * time.Millisecond)
	eng.Submit(context.Background(), job)

	quick := engine.JobSpec{Schema: "R/2", Arity: 0, Kind: "cq", Task: "exists", Pos: []string{"R(a,b)"}}
	resp := postJSON(t, ts.URL+"/v1/jobs", quick)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := srv.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(body), "cqfitd_rejected_total 1") {
		t.Error("/metrics missing the 429 counter")
	}
}
