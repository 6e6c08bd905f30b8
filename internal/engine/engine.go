// Package engine is a concurrent fitting engine on top of the fitting,
// ucqfit and tree packages: it accepts batches of fitting jobs (any
// kind × task combination the extremalcq facade exposes), schedules them
// across a bounded worker pool with per-job context cancellation and
// deadlines, and threads a per-engine, thread-safe memoization cache
// (see Memo) through the hot paths — homomorphism checks, cores and
// direct products — via the context-carried caches of internal/hom and
// internal/instance.
//
// Every job, one-shot or streamed, runs through one pipeline: Submit
// and SubmitStream feed the one job queue; the worker that dequeues a
// job first consults the persistent store, then the flight table, where
// identical jobs share one computation (single-flight deduplication
// keyed by a canonical job fingerprint, so a duplicate-heavy batch
// performs each distinct computation once). A worker that finds no
// flight leads a new one inline; every other submitter reads the flight
// from a subscriber goroutine. A one-shot job keeps only the terminal
// Result of its flight, a stream also every frame. The cqfit CLI and
// the cqfitd JSON service both run through this one execution path.
//
// Engines are fully isolated from each other: each attaches its own
// memo to the contexts of its jobs, so any number of caching engines
// can be live in one process, and closing one never disturbs another.
// The solver algorithms check their context inside the search loops, so
// per-job deadlines and Close stop in-flight work promptly instead of
// abandoning goroutines to run to completion.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"extremalcq/internal/compact"
	"extremalcq/internal/fitting"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/store"
	"extremalcq/internal/universe"
)

// ErrClosed is reported by jobs submitted to, or still queued in, a
// closed engine.
var ErrClosed = errors.New("engine: closed")

// ErrQueueFull is reported by TrySubmit when the job queue has no room;
// callers doing admission control (e.g. cqfitd's 429 path) can retry
// later.
var ErrQueueFull = errors.New("engine: queue full")

// Options configures an Engine. The zero value selects sensible
// defaults.
type Options struct {
	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueSize bounds the number of queued jobs before Submit blocks;
	// <= 0 selects 64.
	QueueSize int
	// CacheSize bounds each memo class (hom, core, product); 0 selects
	// DefaultCacheSize, negative disables the per-engine cache entirely.
	CacheSize int
	// DefaultTimeout applies to jobs that do not set their own Timeout;
	// zero means no default deadline.
	DefaultTimeout time.Duration
	// Store attaches a persistent result store: completed results are
	// written behind keyed by job fingerprint, and lookups run before
	// dedup and the solvers, so answers survive restarts. The engine
	// does not close the store; the caller owns it and must close it
	// only after Close returns (Close drains the write-behind queue).
	Store *store.Store
	// MemoSpill additionally persists the engine memo's hom-check
	// verdicts, cores and direct products to the Store as typed records
	// keyed by canonical instance fingerprints, and faults them back in
	// on memo misses — so a warm restart accelerates *novel* jobs that
	// share sub-computations with earlier work, not just exact repeats.
	// Requires Store and an enabled memo (CacheSize >= 0); otherwise it
	// is ignored. Callers exposing this as configuration should reject
	// the dead combinations loudly (cqfitd and cqfit do).
	MemoSpill bool
	// ForceBacktrack disables the structure-aware dispatch (the join
	// tree and the cutset search), routing every hom search through the
	// generic backtracking solver. Mainly for conformance runs that
	// cross-check the dispatch paths, and for apples-to-apples
	// benchmarking.
	ForceBacktrack bool
	// SearchWorkers is the per-search parallelism of the compact
	// backtracking core: hard searches split their top levels across up
	// to this many goroutines. <= 0 selects GOMAXPROCS; 1 keeps every
	// search single-threaded. This is parallelism *within* one job,
	// multiplying with Workers (parallelism across jobs), so hosts
	// running many concurrent jobs may want 1 here.
	SearchWorkers int
}

// Engine is a concurrent fitting-job scheduler. Create with New, release
// with Close. All methods are safe for concurrent use. Each engine owns
// its memo outright; concurrently live engines never share or disturb
// each other's cache state.
type Engine struct {
	opts  Options
	memo  *Memo
	jobs  chan *envelope
	done  chan struct{}
	wg    sync.WaitGroup
	close sync.Once
	start time.Time

	// dispatch counts which hom-search path each probe selected;
	// engine-owned, like the memo.
	dispatch hom.DispatchStats

	// universes caches the compiled candidate universes of the weakly
	// most-general CQ search per (schema, arity, bounds); engine-owned
	// like the memo.
	universes *universe.Cache

	// arena recycles compact-search scratch (domain bitsets, trails,
	// candidate buffers) across this engine's memo-missed subproblems;
	// engine-owned like the memo, never shared across engines.
	arena *compact.Arena

	// rootCtx is canceled by Close; every job's solver context is linked
	// to it, so in-flight searches unwind promptly on shutdown.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	// closeMu guards closed and the registration of in-flight Submits in
	// subWG; Close flips closed under the write lock, then drains the
	// queue only after every registered Submit has finished, so an
	// envelope can never land in a queue nothing will drain. Submit never
	// blocks while holding the lock, so Close is never delayed by slow
	// jobs or a full queue.
	closeMu sync.RWMutex
	closed  bool
	subWG   sync.WaitGroup

	// waiters tracks the subscriber goroutines; Close waits for them
	// before the final queue drain.
	waiters sync.WaitGroup

	// flights coalesces identical in-flight jobs by flightKey: the first
	// job to arrive computes, the rest read its frames and Result.
	// flightMu also guards every flight's refs.
	flightMu sync.Mutex
	flights  map[string]*flight

	streamsStarted atomic.Int64 // streaming submissions accepted
	streamsActive  atomic.Int64 // streams currently open
	streamResults  atomic.Int64 // answer frames delivered to subscribers

	solvers      atomic.Int64 // solver runs in progress
	solverRuns   atomic.Int64 // solver runs ever started
	dedupLeaders atomic.Int64 // flights that performed the computation
	dedupShared  atomic.Int64 // jobs that joined an in-flight twin's flight

	// Write-behind persistence (nil/zero when no store is attached):
	// leaders — and, with MemoSpill, solvers via the memo — enqueue
	// records on storeCh; the storeWriter goroutine drains it and signals
	// storeWriterDone on exit. storeMu/storeClosed fence enqueues against
	// the channel close: spill writes can arrive through the exported
	// Memo from goroutines Close does not wait for.
	storeMu         sync.RWMutex
	storeClosed     bool
	storeCh         chan storeWrite
	storeWriterDone chan struct{}
	storeHits       atomic.Int64
	storeDropped    atomic.Int64
	storeBadRecords atomic.Int64

	jobsDone   atomic.Int64
	jobsFailed atomic.Int64
	statsMu    sync.Mutex
	tasks      map[string]*taskAgg

	// Queue wait accounting (submit→dispatch latency), guarded by
	// statsMu.
	waitCount int64
	waitTotal time.Duration
	waitMin   time.Duration
	waitMax   time.Duration

	// Stream time-to-first-result accounting (submit→first answer
	// latency), guarded by statsMu.
	ttfrCount int64
	ttfrTotal time.Duration
	ttfrMin   time.Duration
	ttfrMax   time.Duration

	// Fixed-bucket latency histograms. jobDur and queueWait observe
	// every delivered job; taskDur is keyed kind/task (lazily created
	// under statsMu); phaseDur is keyed by obs phase name (created at
	// New, read-only afterwards) and observes the inclusive per-phase
	// durations of traced jobs as their recorders complete.
	jobDur    *obs.Histogram
	queueWait *obs.Histogram
	taskDur   map[string]*obs.Histogram
	phaseDur  map[string]*obs.Histogram
}

// envelope is one submission on its way through the pipeline. Exactly
// one of out (a one-shot job's Result) and stream is set.
type envelope struct {
	ctx    context.Context
	job    Job
	out    chan Result
	stream *Stream
	// first marks a one-shot job that keeps only its first answer
	// (Job.firstOnly); it is part of the flight and store keys.
	first bool
	// enqueued is the submission time; the gap to dispatch is the job's
	// queue wait.
	enqueued time.Time
}

// flight is one computation shared by every submitter of identical jobs
// (equal flightKey). The leader appends each frame and wakes the
// subscribers, which read the frames at their own pace; done and final
// publish the terminal Result. refs counts the attached submitters
// (guarded by Engine.flightMu): the last to detach from an unfinished
// flight cancels ctx, the solver context.
type flight struct {
	key    string
	ctx    context.Context
	cancel context.CancelFunc
	refs   int

	mu     sync.Mutex
	frames []string
	wake   chan struct{} // closed and replaced on every frame; closed at completion
	done   bool
	final  Result
}

// emit appends one frame and wakes the subscribers.
func (f *flight) emit(q string) {
	f.mu.Lock()
	f.frames = append(f.frames, q)
	close(f.wake)
	f.wake = make(chan struct{})
	f.mu.Unlock()
}

// Pending is a handle to a submitted job.
type Pending struct {
	out  chan Result
	once sync.Once
	res  Result
}

// Wait blocks until the job's result is available. It may be called any
// number of times.
func (p *Pending) Wait() Result {
	p.once.Do(func() { p.res = <-p.out })
	return p.res
}

// New starts an engine. Unless opts.CacheSize is negative it creates the
// engine's own memo, attached to the solver context of every job this
// engine executes (and of no other engine's jobs).
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = 64
	}
	rootCtx, rootCancel := context.WithCancel(context.Background())
	e := &Engine{
		opts:       opts,
		jobs:       make(chan *envelope, opts.QueueSize),
		done:       make(chan struct{}),
		start:      time.Now(),
		rootCtx:    rootCtx,
		rootCancel: rootCancel,
		flights:    make(map[string]*flight),
		tasks:      make(map[string]*taskAgg),
		universes:  universe.NewCache(),
		arena:      compact.NewArena(),
		jobDur:     obs.NewHistogram(),
		queueWait:  obs.NewHistogram(),
		taskDur:    make(map[string]*obs.Histogram),
		phaseDur:   make(map[string]*obs.Histogram, len(obs.Phases())),
	}
	for _, p := range obs.Phases() {
		e.phaseDur[p.String()] = obs.NewHistogram()
	}
	if opts.CacheSize >= 0 {
		e.memo = NewMemo(opts.CacheSize)
	}
	if opts.Store != nil {
		e.storeCh = make(chan storeWrite, storeWriteQueueSize)
		e.storeWriterDone = make(chan struct{})
		go e.storeWriter()
		if opts.MemoSpill && e.memo != nil {
			e.memo.spill = &spillSink{store: opts.Store, enqueue: e.enqueueStoreWrite}
		}
	}
	for i := 0; i < opts.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Close stops the workers, cancels in-flight solver work (the
// interruptible searches unwind promptly) and fails any still-queued
// jobs with ErrClosed. Close is idempotent and safe to call concurrently
// with Submit: jobs submitted after Close fail with ErrClosed. Closing
// one engine never affects another engine's cache or jobs.
func (e *Engine) Close() {
	e.close.Do(func() {
		// Refuse new Submits, then wake workers and any Submit blocked on
		// a full queue (both select on done). Canceling rootCtx unwinds
		// every in-flight solver, so shutdown is prompt and leaves no
		// goroutine burning CPU.
		e.closeMu.Lock()
		e.closed = true
		e.closeMu.Unlock()
		close(e.done)
		e.rootCancel()
		e.wg.Wait()
		// Only after every in-flight Submit has left its enqueue select
		// and every subscriber has resolved is the queue quiescent; the
		// drain below is then final.
		e.subWG.Wait()
		e.waiters.Wait()
		// Every leader has finished, so no more result enqueues; fence
		// the queue against late memo-spill writes through the exported
		// Memo (they drop, counted) and flush it before declaring the
		// engine quiescent (the caller may close the store right after
		// Close returns).
		if e.storeCh != nil {
			e.storeMu.Lock()
			e.storeClosed = true
			e.storeMu.Unlock()
			close(e.storeCh)
			<-e.storeWriterDone
		}
		for {
			select {
			case env := <-e.jobs:
				e.settle(env, failedResult(env.job, ErrClosed))
			default:
				return
			}
		}
	})
}

// Submit enqueues a job and returns immediately with a handle to its
// eventual result. ctx governs both queue wait and execution: a context
// canceled while the job is queued aborts it without executing, and one
// canceled while it runs resolves it at once (the shared computation
// runs on while an identical job still waits for it). The job's
// examples are deep-copied at submission, so the caller may reuse or
// mutate them afterwards.
func (e *Engine) Submit(ctx context.Context, j Job) *Pending {
	p := &Pending{out: make(chan Result, 1)}
	e.submit(ctx, &envelope{job: j, out: p.out}, true)
	return p
}

// TrySubmit is Submit without blocking on a full queue: when the job
// queue has no room it declines the job and returns ok=false (and a nil
// Pending) instead of waiting. Invalid jobs and dead contexts are still
// accepted and resolve immediately through the returned Pending, as in
// Submit.
func (e *Engine) TrySubmit(ctx context.Context, j Job) (*Pending, bool) {
	p := &Pending{out: make(chan Result, 1)}
	if !e.submit(ctx, &envelope{job: j, out: p.out}, false) {
		return nil, false
	}
	return p, true
}

// submit validates env's job, sets its default bounds and queues it
// for a worker. block selects waiting on a full queue (Submit) over
// declining with false (TrySubmit). A job that fails before the queue
// (invalid, a dead context, a closed engine) resolves through its
// handle at once.
func (e *Engine) submit(ctx context.Context, env *envelope, block bool) bool {
	if ctx == nil {
		ctx = context.Background()
	}
	if env.stream != nil {
		e.streamsActive.Add(1) // until settle
	}
	j := env.job
	if err := j.Validate(); err != nil {
		e.settle(env, failedResult(j, err))
		return true
	}
	// Deterministically refuse dead contexts before enqueueing.
	if err := ctx.Err(); err != nil {
		e.settle(env, failedResult(j, err))
		return true
	}
	j.Opts = j.searchOpts()
	j.Examples = cloneExamples(j.Examples)
	env.ctx, env.job, env.enqueued = ctx, j, time.Now()
	env.first = env.stream == nil && j.firstOnly()
	// Register with subWG under the read lock, but do the (possibly
	// blocking) enqueue outside it: Close waits for registered Submits
	// before its final drain, and closing done wakes a Submit blocked on
	// a full queue.
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		e.settle(env, failedResult(j, ErrClosed))
		return true
	}
	e.subWG.Add(1)
	e.closeMu.RUnlock()
	defer e.subWG.Done()
	if env.stream != nil {
		e.streamsStarted.Add(1)
	}
	select {
	case e.jobs <- env:
		return true
	default:
	}
	if !block {
		if env.stream != nil {
			e.streamsStarted.Add(-1)
			e.streamsActive.Add(-1)
		}
		return false
	}
	select {
	case e.jobs <- env:
	case <-ctx.Done():
		e.settle(env, failedResult(j, ctx.Err()))
	case <-e.done:
		e.settle(env, failedResult(j, ErrClosed))
	}
	return true
}

// Do runs a single job synchronously.
func (e *Engine) Do(ctx context.Context, j Job) Result {
	return e.Submit(ctx, j).Wait()
}

// DoBatch submits all jobs and waits for all results, in input order.
// Jobs run concurrently across the worker pool; duplicate-heavy batches
// are coalesced by single-flight dedup and served from the per-engine
// memo.
func (e *Engine) DoBatch(ctx context.Context, jobs []Job) []Result {
	pending := make([]*Pending, len(jobs))
	for i, j := range jobs {
		pending[i] = e.Submit(ctx, j)
	}
	out := make([]Result, len(jobs))
	for i, p := range pending {
		out[i] = p.Wait()
	}
	return out
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case env := <-e.jobs:
			e.execute(env)
		}
	}
}

func (e *Engine) execute(env *envelope) {
	j := env.job
	// A closed engine or a context canceled while the job sat in the
	// queue aborts it before any work happens. (The worker's select can
	// pick a queued envelope over the closed done channel, so the check
	// here keeps post-Close dequeues from spawning computations.)
	select {
	case <-e.done:
		e.settle(env, failedResult(j, ErrClosed))
		return
	default:
	}
	if err := env.ctx.Err(); err != nil {
		e.settle(env, failedResult(j, err))
		return
	}
	e.recordWait(time.Since(env.enqueued))
	start := time.Now()

	// Persistent store first: a previously-computed answer (possibly
	// from an earlier process) bypasses dedup and the solvers entirely.
	stored := e.storeLookup(j, env.first)
	if stored != nil && env.stream == nil {
		e.finish(env, start, stored.final)
		return
	}
	f, led := stored, true
	if f == nil {
		f, led = e.join(env)
	}
	if led && f != stored && env.stream == nil {
		// The leading submitter does not wait on its own worker: when its
		// context ends it detaches and gets its failed Result at once,
		// and the flight runs on for any twin (or is canceled if none is
		// left). Once that callback has started, stop returns false and
		// the callback owns the answer.
		stop := context.AfterFunc(env.ctx, func() {
			e.detach(f)
			e.finish(env, start, failedResult(j, e.closeErr(env.ctx)))
		})
		e.lead(f, j, env.first)
		if stop() {
			e.finish(env, start, shape(f.final, j, true))
		}
		return
	}
	// Every other submitter (a follower, or a stream, which may replay a
	// stored flight) reads the flight from a goroutine of its own, so a
	// follower's worker is free at once for distinct work.
	e.waiters.Add(1)
	go e.subscribe(env, f, led, start)
	if led && f != stored {
		e.lead(f, j, env.first)
	}
}

// finish delivers the Result of a job that reached execution: its wall
// time since dispatch (including any single-flight wait), stats, and
// the submitter's handle.
func (e *Engine) finish(env *envelope, start time.Time, res Result) {
	res.Elapsed = time.Since(start)
	e.record(env.job, res)
	e.settle(env, res)
}

// settle hands a submission its terminal Result and closes the books
// on an open stream.
func (e *Engine) settle(env *envelope, res Result) {
	if env.stream == nil {
		env.out <- res
		return
	}
	e.streamsActive.Add(-1)
	env.stream.finish(res)
}

// join attaches env to the live flight for its key, or registers a new
// flight that the caller must lead (led). The flight's context is
// rooted in the engine, not in any submitter: submitters come and go,
// and the computation runs on while anyone is attached. Close cancels
// it, and so does the job's timeout, which every twin shares (it is
// part of the key).
func (e *Engine) join(env *envelope) (f *flight, led bool) {
	key := env.job.flightKey(env.first)
	e.flightMu.Lock()
	defer e.flightMu.Unlock()
	if f := e.flights[key]; f != nil {
		f.refs++
		e.dedupShared.Add(1)
		return f, false
	}
	f = &flight{key: key, refs: 1, wake: make(chan struct{})}
	f.ctx, f.cancel = e.jobContext(env.job)
	e.flights[key] = f
	return f, true
}

// detach drops one submitter from f before it completed; the last one
// out cancels the computation and retires the flight, so a later twin
// starts afresh instead of adopting a canceled carcass.
func (e *Engine) detach(f *flight) {
	e.flightMu.Lock()
	f.refs--
	last := f.refs == 0 && !f.done
	if last && e.flights[f.key] == f {
		delete(e.flights, f.key)
	}
	e.flightMu.Unlock()
	if last {
		f.cancel()
	}
}

// lead computes f on the calling worker, each frame reaching the
// subscribers as the solver emits it, then stores the Result (when it
// succeeded) and publishes it. Retiring the flight and marking it done
// happen under flightMu, so a new twin either joins the live flight or
// misses it and leads a fresh one.
func (e *Engine) lead(f *flight, j Job, first bool) {
	e.dedupLeaders.Add(1)
	res := e.runSolver(f.ctx, j, first, f.emit)
	f.cancel()
	e.storePut(j, first, f, res)
	e.flightMu.Lock()
	if e.flights[f.key] == f {
		delete(e.flights, f.key)
	}
	f.mu.Lock()
	f.done, f.final = true, res
	close(f.wake)
	f.mu.Unlock()
	e.flightMu.Unlock()
}

// subscribe resolves one submitter from its flight: a stream receives
// every frame in order, then the terminal Result; a one-shot submitter
// only the Result. A submitter whose context ends, or whose engine
// closes, detaches at once with a failed Result, which keeps the
// answers it was already sent (see keepAnswers), while the flight runs
// on for its twins.
func (e *Engine) subscribe(env *envelope, f *flight, led bool, start time.Time) {
	defer e.waiters.Done()
	fail := func(sent int) {
		e.detach(f)
		res := failedResult(env.job, e.closeErr(env.ctx))
		if sent > 0 {
			f.mu.Lock()
			keepAnswers(&res, env.job, env.first, f.frames[:sent:sent])
			f.mu.Unlock()
		}
		e.finish(env, start, res)
	}
	for i := 0; ; {
		f.mu.Lock()
		switch {
		case env.stream != nil && i < len(f.frames):
			q := f.frames[i]
			f.mu.Unlock()
			if !e.send(env, Answer{Index: i, Query: q}) {
				fail(i)
				return
			}
			i++
		case f.done:
			f.mu.Unlock()
			e.finish(env, start, shape(f.final, env.job, led))
			return
		default:
			wake := f.wake
			f.mu.Unlock()
			select {
			case <-wake:
			case <-env.ctx.Done():
				fail(i)
				return
			case <-e.done:
				fail(i)
				return
			}
		}
	}
}

// shape returns a flight's Result as one submitter receives it, under
// the submitter's label. The trace belongs to the flight's leader: a
// traced twin gets a copy marked Shared, an untraced submitter none.
func shape(res Result, j Job, led bool) Result {
	res.Label = j.Label
	if res.Trace != nil {
		switch {
		case !j.Trace:
			res.Trace = nil
		case !led:
			t := res.Trace.Clone()
			t.Shared = true
			res.Trace = t
		}
	}
	return res
}

// jobContext derives a flight's solver context: the job's (or the
// engine default) timeout under the root context Close cancels.
func (e *Engine) jobContext(j Job) (context.Context, context.CancelFunc) {
	timeout := j.Timeout
	if timeout <= 0 {
		timeout = e.opts.DefaultTimeout
	}
	if timeout > 0 {
		return context.WithTimeout(e.rootCtx, timeout)
	}
	return context.WithCancel(e.rootCtx)
}

// runSolver runs the job's dispatch on the calling goroutine with the
// engine's memo and caches attached to the solver context, passing each
// frame to emit. The algorithms check ctx inside their search loops, so
// a cancellation unwinds the run within a few search steps, into a
// failed Result that keeps only the answers already emitted (see
// dispatch).
//
// For traced jobs a fresh recorder rides the solver context and the
// root solve span covers the dispatch, so its duration is pure solver
// wall time; a run cut short by its deadline still yields the report
// of what it did.
func (e *Engine) runSolver(ctx context.Context, j Job, first bool, emit func(string)) Result {
	solveCtx := e.solverContext(ctx)
	var rec *obs.Recorder
	if j.Trace {
		rec = obs.NewRecorder()
		solveCtx = obs.WithRecorder(solveCtx, rec)
	}
	e.solvers.Add(1)
	e.solverRuns.Add(1)
	defer e.solvers.Add(-1)
	res, err := func() (Result, error) {
		sp := rec.StartSpan(obs.PhaseSolve)
		defer sp.End()
		return dispatch(solveCtx, j, first, emit)
	}()
	if err != nil {
		res.Err = e.closeErr(ctx)
	}
	res.Trace = e.finishTrace(rec)
	return res
}

// finishTrace snapshots a traced job's recorder into its report and
// feeds the per-phase duration histograms. A nil recorder (untraced
// job) yields a nil report. Called once per recorder on the completion
// path, so phase histograms count each traced computation exactly once
// — dedup followers reuse the leader's finished report and never pass
// through here.
func (e *Engine) finishTrace(rec *obs.Recorder) *obs.Report {
	if rec == nil {
		return nil
	}
	for phase, d := range rec.PhaseTotals() {
		if h := e.phaseDur[phase]; h != nil {
			h.Observe(d)
		}
	}
	return rec.Report()
}

// withEngineCaches attaches the engine memo to a solver context (hom,
// core and product lookups all route through it).
func withEngineCaches(ctx context.Context, m *Memo) context.Context {
	ctx = hom.WithCache(ctx, m)
	return instance.WithProductCache(ctx, m)
}

// solverContext attaches every piece of engine-owned solver state to a
// job's context: the memo (when enabled), the compiled candidate
// universes, the dispatch-path counters, and the compact-search arena
// and worker budget. ForceBacktrack pins
// the hom dispatch mode so the join tree and the cutset search never
// engage.
func (e *Engine) solverContext(ctx context.Context) context.Context {
	if e.memo != nil {
		ctx = withEngineCaches(ctx, e.memo)
	}
	ctx = universe.WithCache(ctx, e.universes)
	ctx = hom.WithDispatchStats(ctx, &e.dispatch)
	if e.opts.ForceBacktrack {
		ctx = hom.WithDispatchMode(ctx, hom.DispatchBacktrack)
	}
	ctx = compact.WithArena(ctx, e.arena)
	return hom.WithSearchWorkers(ctx, e.opts.SearchWorkers)
}

// closeErr maps a context failure observed during Close to ErrClosed
// (the engine canceled the work), and to the context's own error
// otherwise.
func (e *Engine) closeErr(ctx context.Context) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
		return ctx.Err()
	}
}

func failedResult(j Job, err error) Result {
	return Result{Label: j.Label, Kind: j.Kind, Task: j.Task, Err: err}
}

func cloneExamples(e fitting.Examples) fitting.Examples {
	out := fitting.Examples{Schema: e.Schema, Arity: e.Arity}
	for _, p := range e.Pos {
		out.Pos = append(out.Pos, p.Clone())
	}
	for _, n := range e.Neg {
		out.Neg = append(out.Neg, n.Clone())
	}
	return out
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

type taskAgg struct {
	count  int64
	errors int64
	total  time.Duration
	max    time.Duration
}

// TaskStats aggregates latency per kind/task combination.
type TaskStats struct {
	Count   int64   `json:"count"`
	Errors  int64   `json:"errors"`
	TotalMS float64 `json:"total_ms"`
	AvgMS   float64 `json:"avg_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// WaitStats aggregates queue wait (submit→dispatch latency) over every
// job that reached execution.
type WaitStats struct {
	Count int64   `json:"count"`
	MinMS float64 `json:"min_ms"`
	AvgMS float64 `json:"avg_ms"`
	MaxMS float64 `json:"max_ms"`
}

// StreamStats is a snapshot of streaming-job activity.
type StreamStats struct {
	// Started counts streaming submissions accepted; Active counts
	// streams currently open; Results counts answer frames delivered to
	// subscribers across all streams.
	Started int64 `json:"started"`
	Active  int64 `json:"active"`
	Results int64 `json:"results"`
	// FirstResult aggregates submit→first-answer latency over streams
	// that emitted at least one answer — the latency one-shot buffering
	// would have hidden behind the full search.
	FirstResult WaitStats `json:"first_result"`
}

// Stats is a point-in-time snapshot of engine activity.
type Stats struct {
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	JobsDone   int64 `json:"jobs_done"`
	JobsFailed int64 `json:"jobs_failed"`
	// ActiveSolvers counts solver runs in progress; after deadlines or
	// Close it settles back to zero promptly because the searches are
	// interruptible.
	ActiveSolvers int64 `json:"active_solvers"`
	// SolverRuns counts solver runs ever started; a warm store or memo
	// path leaves it untouched, so the zero-recompute claim of the
	// persistence layer is directly observable.
	SolverRuns int64 `json:"solver_runs"`
	// DedupLeaders counts computations actually performed; DedupShared
	// counts jobs that joined an identical job's flight.
	DedupLeaders int64                `json:"dedup_leaders"`
	DedupShared  int64                `json:"dedup_shared"`
	Cache        CacheStats           `json:"cache"`
	Tasks        map[string]TaskStats `json:"tasks"`
	// Wait aggregates submit→dispatch queue latency.
	Wait WaitStats `json:"queue_wait"`
	// Streams reports streaming-job activity (SubmitStream).
	Streams StreamStats `json:"streams"`
	// Store reports persistent-store activity; nil when no store is
	// attached. StoreHits counts jobs answered from the store without
	// any solver work.
	Store     *StoreStats `json:"store,omitempty"`
	StoreHits int64       `json:"store_hits"`
	// MemoSpill reports memo-spill activity (entries faulted in from and
	// spilled out to the persistent store); nil unless Options.MemoSpill
	// is active.
	MemoSpill *SpillStats `json:"memo_spill,omitempty"`
	// Dispatch reports how many hom searches each dispatch path served:
	// the join-tree fast path for α-acyclic sources, the cutset search
	// for cyclic sources with a small cycle cutset, and the generic
	// backtracking solver.
	Dispatch DispatchStats `json:"hom_dispatch"`
	// Durations holds the fixed-bucket latency histograms (cqfitd turns
	// them into Prometheus histogram families).
	Durations DurationStats `json:"durations"`
}

// DispatchStats counts hom-search dispatch decisions per path.
type DispatchStats struct {
	JoinTree  int64 `json:"jointree"`
	Cutset    int64 `json:"cutset"`
	Backtrack int64 `json:"backtrack"`
}

// DurationStats groups the engine's fixed-bucket latency histograms.
// Job and Queue observe every delivered job; Tasks is keyed kind/task;
// Phases is keyed by solver phase name and populated only by traced
// jobs (tracing is opt-in per job, so untraced workloads leave the
// phase histograms at zero — by design, keeping the untraced hot path
// allocation-free).
type DurationStats struct {
	Job    obs.HistogramSnapshot            `json:"job"`
	Queue  obs.HistogramSnapshot            `json:"queue_wait"`
	Tasks  map[string]obs.HistogramSnapshot `json:"tasks,omitempty"`
	Phases map[string]obs.HistogramSnapshot `json:"phases,omitempty"`
}

func (e *Engine) record(j Job, res Result) {
	e.jobsDone.Add(1)
	if res.Err != nil {
		e.jobsFailed.Add(1)
	}
	key := string(j.Kind) + "/" + string(j.Task)
	e.jobDur.Observe(res.Elapsed)
	e.statsMu.Lock()
	agg, ok := e.tasks[key]
	if !ok {
		agg = &taskAgg{}
		e.tasks[key] = agg
	}
	agg.count++
	if res.Err != nil {
		agg.errors++
	}
	agg.total += res.Elapsed
	if res.Elapsed > agg.max {
		agg.max = res.Elapsed
	}
	th, ok := e.taskDur[key]
	if !ok {
		th = obs.NewHistogram()
		e.taskDur[key] = th
	}
	e.statsMu.Unlock()
	th.Observe(res.Elapsed)
}

// recordWait folds one job's submit→dispatch latency into the queue
// wait aggregates.
func (e *Engine) recordWait(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.queueWait.Observe(d)
	e.statsMu.Lock()
	e.waitCount++
	e.waitTotal += d
	if e.waitCount == 1 || d < e.waitMin {
		e.waitMin = d
	}
	if d > e.waitMax {
		e.waitMax = d
	}
	e.statsMu.Unlock()
}

// Stats returns a snapshot of queue depth, job counters, single-flight
// dedup counters, cache hit rates, queue wait aggregates, persistent
// store activity and per-task latency aggregates.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:       e.opts.Workers,
		QueueDepth:    len(e.jobs),
		JobsDone:      e.jobsDone.Load(),
		JobsFailed:    e.jobsFailed.Load(),
		ActiveSolvers: e.solvers.Load(),
		SolverRuns:    e.solverRuns.Load(),
		DedupLeaders:  e.dedupLeaders.Load(),
		DedupShared:   e.dedupShared.Load(),
		Tasks:         make(map[string]TaskStats),
		StoreHits:     e.storeHits.Load(),
	}
	if e.memo != nil {
		s.Cache = e.memo.Stats()
	}
	if e.opts.Store != nil {
		s.Store = &StoreStats{
			Stats:         e.opts.Store.Stats(),
			WriteQueue:    len(e.storeCh),
			DroppedWrites: e.storeDropped.Load(),
			BadRecords:    e.storeBadRecords.Load(),
		}
	}
	if e.memo != nil && e.memo.spill != nil {
		sp := e.memo.spill.stats()
		s.MemoSpill = &sp
	}
	s.Streams = StreamStats{
		Started: e.streamsStarted.Load(),
		Active:  e.streamsActive.Load(),
		Results: e.streamResults.Load(),
	}
	s.Dispatch.JoinTree, s.Dispatch.Cutset, s.Dispatch.Backtrack = e.dispatch.Snapshot()
	s.Durations.Job = e.jobDur.Snapshot()
	s.Durations.Queue = e.queueWait.Snapshot()
	for phase, h := range e.phaseDur {
		if snap := h.Snapshot(); snap.Count > 0 {
			if s.Durations.Phases == nil {
				s.Durations.Phases = make(map[string]obs.HistogramSnapshot)
			}
			s.Durations.Phases[phase] = snap
		}
	}
	e.statsMu.Lock()
	s.Wait.Count = e.waitCount
	if e.waitCount > 0 {
		s.Wait.MinMS = float64(e.waitMin) / float64(time.Millisecond)
		s.Wait.AvgMS = float64(e.waitTotal) / float64(e.waitCount) / float64(time.Millisecond)
		s.Wait.MaxMS = float64(e.waitMax) / float64(time.Millisecond)
	}
	s.Streams.FirstResult.Count = e.ttfrCount
	if e.ttfrCount > 0 {
		s.Streams.FirstResult.MinMS = float64(e.ttfrMin) / float64(time.Millisecond)
		s.Streams.FirstResult.AvgMS = float64(e.ttfrTotal) / float64(e.ttfrCount) / float64(time.Millisecond)
		s.Streams.FirstResult.MaxMS = float64(e.ttfrMax) / float64(time.Millisecond)
	}
	for k, a := range e.tasks {
		ts := TaskStats{
			Count:   a.count,
			Errors:  a.errors,
			TotalMS: float64(a.total) / float64(time.Millisecond),
			MaxMS:   float64(a.max) / float64(time.Millisecond),
		}
		if a.count > 0 {
			ts.AvgMS = ts.TotalMS / float64(a.count)
		}
		s.Tasks[k] = ts
	}
	for k, h := range e.taskDur {
		if s.Durations.Tasks == nil {
			s.Durations.Tasks = make(map[string]obs.HistogramSnapshot)
		}
		s.Durations.Tasks[k] = h.Snapshot()
	}
	e.statsMu.Unlock()
	return s
}

// Memo returns the engine's memo, or nil when caching is disabled. The
// memo belongs to this engine alone.
func (e *Engine) Memo() *Memo { return e.memo }
