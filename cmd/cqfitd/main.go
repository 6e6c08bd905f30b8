// Command cqfitd serves the fitting engine over HTTP/JSON.
//
// Usage:
//
//	cqfitd [-addr :8080] [-workers N] [-queue N] [-cache N] [-timeout 30s]
//	       [-store-dir DIR] [-store-max-bytes N] [-memo-spill]
//	       [-slow-job-threshold 10s] [-pprof]
//
// Endpoints:
//
//	POST /v1/jobs         run one fitting job; with ?debug=trace the
//	                      response carries a solver explain report
//	                      (phase durations, search counters)
//	POST /v1/jobs/stream  run one job in streaming mode (NDJSON: one
//	                      flushed frame per enumerated answer, then a
//	                      terminal {"done":true,...} frame; closing the
//	                      connection cancels the search); with
//	                      ?debug=trace a final {"trace":...} frame
//	                      follows the terminal frame
//	POST /v1/batch        run a batch of fitting jobs (?debug=trace
//	                      traces every job in the batch)
//	GET  /v1/stats        cache hit rates, queue depth, queue wait,
//	                      streams, store activity, per-task latency
//	GET  /metrics         the same counters in Prometheus text format,
//	                      including duration histograms (job, queue
//	                      wait, per-task, per-phase)
//	GET  /debug/pprof/*   Go runtime profiles; only with -pprof
//
// Streams and one-shot jobs share the job queue and the worker pool:
// -workers bounds every concurrent solver, and a full queue (-queue)
// refuses any job, streamed or not, with 429 and Retry-After.
//
// Logs are structured (log/slog text format) on stderr: one access
// line per request (method, path, status, duration and, for job
// endpoints, the job fingerprint), plus a warning for every job whose
// execution exceeds -slow-job-threshold.
//
// With -store-dir, completed results are persisted to an append-only
// fingerprint-keyed log (see internal/store); a restarted daemon
// reopens it and serves previously-computed jobs from disk without
// running any solver. With -memo-spill (requires -store-dir and an
// enabled memo), the memo's hom-check verdicts, cores and direct
// products are persisted too, so a restarted daemon also accelerates
// *novel* jobs that share sub-computations with earlier work. Flag
// combinations that would silently disable a requested feature are
// rejected at startup.
//
// A job is a JSON object using the same text formats as the cqfit CLI:
//
//	{
//	  "schema": "R/2,P/1", "arity": 1,
//	  "kind": "cq", "task": "construct",
//	  "pos": ["R(a,b). R(b,c) @ a"],
//	  "neg": ["P(u) @ u"],
//	  "max_atoms": 3, "max_vars": 4, "timeout_ms": 1000
//	}
//
// See README.md for curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"extremalcq/internal/engine"
	"extremalcq/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 256, "job queue size")
		cache     = flag.Int("cache", 0, "memo entries per class (0 = default, <0 = disable)")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-job deadline (0 = none)")
		storeDir  = flag.String("store-dir", "", "persistent result store directory (empty = no persistence)")
		storeMax  = flag.Int64("store-max-bytes", 256<<20, "store size budget; oldest segments evicted past it (<= 0 = unbounded)")
		memoSpill = flag.Bool("memo-spill", false, "persist memo entries (hom/core/product) to the store so restarts accelerate novel jobs (requires -store-dir)")
		slowJob   = flag.Duration("slow-job-threshold", 10*time.Second, "log a warning for jobs whose execution exceeds this (0 = never)")
		pprofOn   = flag.Bool("pprof", false, "serve Go runtime profiles under /debug/pprof/ (off by default; enable only on trusted networks)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	// Reject flag combinations that would silently no-op a requested
	// feature instead of starting a daemon that quietly does less than
	// asked.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := validateFlags(*storeDir, *memoSpill, *cache, explicit); err != nil {
		fatal(err)
	}

	// The store is opened before and closed after the engine (defers run
	// LIFO): Engine.Close drains the write-behind queue first.
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMax})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		sst := st.Stats()
		logger.Info("store opened",
			"dir", *storeDir, "entries", sst.Entries, "bytes", sst.Bytes,
			"segments", sst.Segments, "recovered_truncations", sst.RecoveredTruncations)
	}

	eng := engine.New(engine.Options{
		Workers:        *workers,
		QueueSize:      *queue,
		CacheSize:      *cache,
		DefaultTimeout: *timeout,
		Store:          st,
		MemoSpill:      *memoSpill,
	})
	defer eng.Close()

	s := newServer(eng)
	s.log = logger
	s.slowJob = *slowJob
	if *pprofOn {
		s.enablePprof()
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           accessLog(logger, s),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		// No WriteTimeout: /v1/jobs/stream responses live as long as
		// their enumeration. One-shot handlers are bounded by the
		// engine's per-job deadline instead.
	}
	go func() {
		logger.Info("listening", "addr", *addr)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", "err", err)
	}
}

// statusRecorder captures the response status for the access log.
// Unwrap keeps http.ResponseController features (flush, write
// deadlines) reaching the underlying writer, which the streaming
// handler depends on.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// accessLog wraps the server with one structured log line per request:
// method, path, status, duration and — for job endpoints, which fill
// the planted requestInfo — the job fingerprint.
func accessLog(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := &requestInfo{}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(withRequestInfo(r.Context(), ri)))
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration", time.Since(start),
		}
		if ri.fingerprint != "" {
			attrs = append(attrs, "job", ri.fingerprint)
		}
		logger.Info("request", attrs...)
	})
}

// validateFlags rejects store/memo flag combinations that request a
// feature the configuration then disables: -memo-spill without a store
// or with the memo off would be a silent no-op, and an explicitly set
// -store-max-bytes without -store-dir bounds a store that does not
// exist. explicit holds the names of flags the command line actually
// set (flag.Visit), so defaulted values never trip the check.
func validateFlags(storeDir string, memoSpill bool, cache int, explicit map[string]bool) error {
	if storeDir == "" {
		if memoSpill {
			return errors.New("-memo-spill requires -store-dir (memo entries spill to the persistent store)")
		}
		if explicit["store-max-bytes"] {
			return errors.New("-store-max-bytes requires -store-dir (there is no store to bound)")
		}
	}
	if memoSpill && cache < 0 {
		return errors.New("-memo-spill requires the memo; it cannot be combined with -cache < 0")
	}
	return nil
}
