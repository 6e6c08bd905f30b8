package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"extremalcq/internal/engine"
	"extremalcq/internal/obs"
)

// server exposes a fitting engine over HTTP/JSON:
//
//	POST /v1/jobs         — run a single job (body: JobSpec)
//	POST /v1/batch        — run a batch     (body: {"jobs": [JobSpec, ...]})
//	POST /v1/jobs/stream  — run a job in streaming mode: each enumerated
//	                        answer is its own flushed NDJSON frame,
//	                        followed by a terminal frame; disconnecting
//	                        cancels the underlying search
//	GET  /v1/stats        — engine statistics (cache hit rates, queue
//	                        depth, queue wait, streams, store activity,
//	                        per-task latency)
//	GET  /metrics         — the same counters in Prometheus text format
type server struct {
	eng   *engine.Engine
	mux   *http.ServeMux
	start time.Time
	// log receives the slow-job warnings; newServer defaults it to
	// slog.Default and main replaces it with the configured logger.
	log *slog.Logger
	// slowJob is the elapsed-time threshold above which a completed job
	// is logged as a warning; zero disables the check.
	slowJob time.Duration
	// rejected counts jobs refused with 429 / in-batch queue-full
	// errors: every refused job counts, including jobs refused out of a
	// partially admitted batch.
	rejected atomic.Int64
}

func newServer(eng *engine.Engine) *server {
	s := &server{eng: eng, mux: http.NewServeMux(), start: time.Now(), log: slog.Default()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleJob)
	s.mux.HandleFunc("POST /v1/jobs/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// enablePprof mounts the net/http/pprof handlers on the server's mux
// (the package's side-effect registration targets the default mux,
// which this server never serves). Off by default; see -pprof.
func (s *server) enablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// requestInfo is a per-request holder the access-log middleware plants
// in the context so handlers can annotate the access line with facts
// they only learn mid-request (the job fingerprint, known after the
// spec is parsed and built).
type requestInfo struct {
	fingerprint string
}

type requestInfoKey struct{}

func withRequestInfo(ctx context.Context, ri *requestInfo) context.Context {
	return context.WithValue(ctx, requestInfoKey{}, ri)
}

func requestInfoFrom(ctx context.Context) *requestInfo {
	ri, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return ri
}

// noteFingerprint annotates the current access-log line with the job's
// fingerprint; a no-op outside the middleware (tests hit handlers
// directly).
func noteFingerprint(r *http.Request, j engine.Job) {
	if ri := requestInfoFrom(r.Context()); ri != nil {
		ri.fingerprint = j.FingerprintHex()
	}
}

// warnSlow logs a completed job whose execution exceeded the configured
// slow-job threshold.
func (s *server) warnSlow(j engine.Job, res engine.Result) {
	if s.slowJob <= 0 || res.Elapsed < s.slowJob {
		return
	}
	s.log.Warn("slow job",
		"fingerprint", j.FingerprintHex(),
		"kind", string(j.Kind),
		"task", string(j.Task),
		"elapsed", res.Elapsed,
		"threshold", s.slowJob)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// resultJSON is the wire form of an engine.Result.
type resultJSON struct {
	Label     string      `json:"label,omitempty"`
	Kind      string      `json:"kind,omitempty"`
	Task      string      `json:"task,omitempty"`
	Found     bool        `json:"found"`
	Queries   []string    `json:"queries,omitempty"`
	Note      string      `json:"note,omitempty"`
	Error     string      `json:"error,omitempty"`
	ElapsedMS float64     `json:"elapsed_ms"`
	Trace     *obs.Report `json:"trace,omitempty"`
}

func toJSON(res engine.Result) resultJSON {
	out := resultJSON{
		Label:     res.Label,
		Kind:      string(res.Kind),
		Task:      string(res.Task),
		Found:     res.Found,
		Queries:   res.Queries,
		Note:      res.Note,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
		Trace:     res.Trace,
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	return out
}

// debugTrace reports whether the request opted into solver tracing via
// the ?debug=trace query parameter. The parameter composes with the
// JobSpec's own "trace" field by OR: either switch turns tracing on.
func debugTrace(r *http.Request) bool {
	for _, v := range r.URL.Query()["debug"] {
		if v == "trace" {
			return true
		}
	}
	return false
}

// maxBodyBytes bounds request bodies; batches of text-format examples
// are small, so 8 MiB is generous.
const maxBodyBytes = 8 << 20

// retryAfterSeconds is the Retry-After hint returned with 429 responses
// when the engine's queue is full.
const retryAfterSeconds = "1"

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	var spec engine.JobSpec
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if debugTrace(r) {
		spec.Trace = true
	}
	job, err := spec.Build()
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job: %v", err)
		return
	}
	noteFingerprint(r, job)
	// Admission control: never park an HTTP handler on a full queue;
	// shed load and tell the client when to come back.
	p, ok := s.eng.TrySubmit(r.Context(), job)
	if !ok {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds)
		httpError(w, http.StatusTooManyRequests, "job queue full; retry later")
		return
	}
	res := p.Wait()
	s.warnSlow(job, res)
	writeJSON(w, http.StatusOK, toJSON(res))
}

// streamAnswerFrame is one NDJSON answer line of POST /v1/jobs/stream.
type streamAnswerFrame struct {
	Index int    `json:"index"`
	Query string `json:"query"`
}

// streamTraceFrame is the optional last NDJSON line of a traced stream
// (?debug=trace or "trace": true). It follows the terminal frame, so
// clients that stop reading at {"done":true,...} never see it and need
// no parser changes.
type streamTraceFrame struct {
	Trace *obs.Report `json:"trace"`
}

// streamFinalFrame is the terminal NDJSON line of POST /v1/jobs/stream.
// Queries is the task's final answer list — for enumeration searches it
// repeats the streamed frames, but for the most-general UCQ search it
// carries the verified union the candidate frames only led up to.
type streamFinalFrame struct {
	Done      bool     `json:"done"`
	Found     bool     `json:"found"`
	Results   int      `json:"results"`
	Queries   []string `json:"queries,omitempty"`
	Note      string   `json:"note,omitempty"`
	Error     string   `json:"error,omitempty"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// handleStream runs a job in streaming mode: every enumerated answer is
// written — and flushed — as its own NDJSON frame the moment the solver
// verifies it, so clients of an exponentially large enumeration see the
// first answers while the search is still running. The request context
// is the subscription: a client that disconnects detaches from the
// stream, and the underlying solver is canceled once nobody listens.
// Admission control is the one-shot endpoints': a stream waits in the
// same job queue, and a full queue sheds the request with 429.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	var spec engine.JobSpec
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if debugTrace(r) {
		spec.Trace = true
	}
	job, err := spec.Build()
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job: %v", err)
		return
	}
	noteFingerprint(r, job)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	st, ok := s.eng.TrySubmitStream(ctx, job)
	if !ok {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds)
		httpError(w, http.StatusTooManyRequests, "job queue full; retry later")
		return
	}
	// Streams outlive any fixed bound: clear the connection write
	// deadline a previous one-shot response on this keep-alive
	// connection may have left behind (writeJSON sets an absolute one).
	// The controller reaches the connection's writer through wrappers
	// such as the access log's statusRecorder (via Unwrap), which a
	// w.(http.Flusher) assertion would not.
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Commit the status and flush before the first answer: a slow
	// enumeration must look like an admitted stream, not a hung request.
	w.WriteHeader(http.StatusOK)
	rc.Flush()
	enc := json.NewEncoder(w)
	frames := 0
	for a := range st.Answers() {
		if err := enc.Encode(streamAnswerFrame{Index: a.Index, Query: a.Query}); err != nil {
			cancel() // client gone; detaching cancels the search
			break
		}
		rc.Flush()
		frames++
	}
	res := st.Wait()
	s.warnSlow(job, res)
	final := streamFinalFrame{
		Done:      true,
		Found:     res.Found,
		Results:   frames,
		Queries:   res.Queries,
		Note:      res.Note,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
	}
	if res.Err != nil {
		final.Error = res.Err.Error()
	}
	enc.Encode(final)
	if res.Trace != nil {
		enc.Encode(streamTraceFrame{Trace: res.Trace})
	}
	rc.Flush()
}

type batchRequest struct {
	Jobs []engine.JobSpec `json:"jobs"`
}

type batchResponse struct {
	Results   []resultJSON `json:"results"`
	ElapsedMS float64      `json:"elapsed_ms"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	start := time.Now()
	// Specs that fail to build report their error in place; the rest are
	// admitted job-by-job without ever blocking the handler on a full
	// queue. When the queue refuses the entire batch, the client gets a
	// 429 with a Retry-After hint; a partially admitted batch runs the
	// admitted jobs and reports the refusals in place.
	results := make([]resultJSON, len(req.Jobs))
	pendings := make([]*engine.Pending, 0, len(req.Jobs))
	jobs := make([]engine.Job, 0, len(req.Jobs))
	idx := make([]int, 0, len(req.Jobs))
	admitted, refused := 0, 0
	trace := debugTrace(r)
	for i, spec := range req.Jobs {
		if trace {
			spec.Trace = true
		}
		job, err := spec.Build()
		if err != nil {
			results[i] = resultJSON{Label: spec.Label, Kind: spec.Kind, Task: spec.Task, Error: err.Error()}
			continue
		}
		p, ok := s.eng.TrySubmit(r.Context(), job)
		if !ok {
			refused++
			results[i] = resultJSON{Label: spec.Label, Kind: spec.Kind, Task: spec.Task, Error: engine.ErrQueueFull.Error()}
			continue
		}
		admitted++
		pendings = append(pendings, p)
		jobs = append(jobs, job)
		idx = append(idx, i)
	}
	// Every refused job counts, not just fully refused batches —
	// otherwise partially refused batches silently undercount and
	// /metrics disagrees with what clients experienced.
	if refused > 0 {
		s.rejected.Add(int64(refused))
	}
	if refused > 0 && admitted == 0 {
		w.Header().Set("Retry-After", retryAfterSeconds)
		httpError(w, http.StatusTooManyRequests, "job queue full; retry later")
		return
	}
	for k, p := range pendings {
		res := p.Wait()
		s.warnSlow(jobs[k], res)
		results[idx[k]] = toJSON(res)
	}
	writeJSON(w, http.StatusOK, batchResponse{
		Results:   results,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

type statsResponse struct {
	UptimeMS    float64      `json:"uptime_ms"`
	Rejected429 int64        `json:"rejected_429"`
	Engine      engine.Stats `json:"engine"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeMS:    float64(time.Since(s.start)) / float64(time.Millisecond),
		Rejected429: s.rejected.Load(),
		Engine:      s.eng.Stats(),
	})
}

// oneShotWriteTimeout bounds writing a one-shot JSON response. The
// http.Server carries no global WriteTimeout (streams must outlive any
// fixed bound), so non-streaming responses set their own deadline: a
// client that stops reading cannot pin the connection forever.
const oneShotWriteTimeout = 5 * time.Minute

// writeJSON encodes v to a buffer before touching the response: a value
// that fails to marshal becomes a proper 500, never a truncated body
// under an already-committed 200 status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	// Best effort: recorders and exotic writers may not support write
	// deadlines, which is fine for tests.
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(oneShotWriteTimeout))
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", "response encoding failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(buf, '\n'))
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
