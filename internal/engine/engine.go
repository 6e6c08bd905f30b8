// Package engine is a concurrent fitting engine on top of the fitting,
// ucqfit and tree packages: it accepts batches of fitting jobs (any
// kind × task combination the extremalcq facade exposes), schedules them
// across a bounded worker pool with per-job context cancellation and
// deadlines, and threads a per-engine, thread-safe memoization cache
// (see Memo) through the hot paths — homomorphism checks, cores and
// direct products — via the context-carried caches of internal/hom and
// internal/instance. Identical jobs running concurrently are coalesced
// by single-flight deduplication keyed by a canonical job fingerprint,
// so a duplicate-heavy batch performs each distinct computation once.
// The cqfit CLI and the cqfitd JSON service both run through this one
// execution path.
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
	"extremalcq/internal/hypergraph"
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
	// MaxStreams bounds the open streams (subscriptions, not flights)
	// TrySubmitStream admits concurrently. Stream leaders run off-pool,
	// and every distinct streaming job adds a solver, so the bound
	// conservatively caps concurrent enumerations — dedup followers of
	// a shared flight count against it too, even though they add no
	// solver load. <= 0 selects 4 × Workers. SubmitStream is not
	// bounded.
	MaxStreams int
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
	// ForceBacktrack disables the acyclicity-aware join-tree fast path,
	// routing every hom search through the generic backtracking solver.
	// Mainly for conformance runs that cross-check the two dispatch
	// paths, and for apples-to-apples benchmarking.
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

	// decomp memoizes hypergraph acyclicity verdicts and join forests
	// per instance fingerprint; dispatch counts which hom-search path
	// each probe selected. Both are engine-owned, like the memo.
	decomp   *hypergraph.Cache
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

	// waiters tracks single-flight followers parked off-worker; Close
	// waits for them before the final queue drain.
	waiters sync.WaitGroup

	// flights coalesces identical in-flight jobs by fingerprint: the
	// first job to arrive computes, the rest wait for its result.
	flightMu sync.Mutex
	flights  map[string]*flight

	// streams coalesces identical in-flight streaming jobs (see
	// stream.go): followers replay the leader's prefix and tail live.
	streamMu sync.Mutex
	streams  map[string]*streamFlight

	streamsStarted atomic.Int64 // streaming submissions accepted
	streamsActive  atomic.Int64 // streams currently open
	streamResults  atomic.Int64 // answer frames delivered to subscribers

	solvers      atomic.Int64 // solver goroutines currently running
	solverRuns   atomic.Int64 // solver goroutines ever launched
	dedupLeaders atomic.Int64 // flights that performed the computation
	dedupShared  atomic.Int64 // jobs that adopted an in-flight twin's result

	// Write-behind persistence (nil/zero when no store is attached):
	// leaders — and, with MemoSpill, solver goroutines via the memo —
	// enqueue records on storeCh; the storeWriter goroutine drains it
	// and signals storeWriterDone on exit. storeMu/storeClosed fence
	// enqueues against the channel close: spill writes can arrive from
	// solver goroutines that cancellation abandoned mid-unwind, after
	// every awaited goroutine has finished.
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

type envelope struct {
	ctx context.Context
	job Job
	out chan Result
	// enqueued is the submission time; the gap to dispatch is the job's
	// queue wait.
	enqueued time.Time
}

// flight is one in-flight computation shared by identical jobs: res is
// published before done is closed, so waiters reading after <-done see
// the completed value.
type flight struct {
	done chan struct{}
	res  Result
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
	if opts.MaxStreams <= 0 {
		opts.MaxStreams = 4 * opts.Workers
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
		streams:    make(map[string]*streamFlight),
		tasks:      make(map[string]*taskAgg),
		decomp:     hypergraph.NewCache(0),
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
		// and every single-flight waiter has resolved is the queue
		// quiescent; the drain below is then final.
		e.subWG.Wait()
		e.waiters.Wait()
		// Every leader has finished, so no more result enqueues; fence
		// the queue against late memo-spill writes from abandoned solver
		// goroutines (they drop, counted) and flush it before declaring
		// the engine quiescent (the caller may close the store right
		// after Close returns).
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
				env.out <- failedResult(env.job, ErrClosed)
			default:
				return
			}
		}
	})
}

// Submit enqueues a job and returns immediately with a handle to its
// eventual result. ctx governs both queue wait and execution: a context
// canceled while the job is queued aborts it without executing. The
// job's examples are deep-copied at submission, so the caller may reuse
// or mutate them afterwards.
func (e *Engine) Submit(ctx context.Context, j Job) *Pending {
	p, env, ok := e.prepare(ctx, j)
	if !ok {
		return p
	}
	defer e.subWG.Done()
	select {
	case e.jobs <- env:
	case <-env.ctx.Done():
		p.out <- failedResult(j, env.ctx.Err())
	case <-e.done:
		p.out <- failedResult(j, ErrClosed)
	}
	return p
}

// TrySubmit is Submit without blocking on a full queue: when the job
// queue has no room it declines the job and returns ok=false (and a nil
// Pending) instead of waiting. Invalid jobs and dead contexts are still
// accepted and resolve immediately through the returned Pending, as in
// Submit.
func (e *Engine) TrySubmit(ctx context.Context, j Job) (*Pending, bool) {
	p, env, ok := e.prepare(ctx, j)
	if !ok {
		return p, true
	}
	defer e.subWG.Done()
	select {
	case e.jobs <- env:
		return p, true
	case <-env.ctx.Done():
		p.out <- failedResult(j, env.ctx.Err())
		return p, true
	case <-e.done:
		p.out <- failedResult(j, ErrClosed)
		return p, true
	default:
		return nil, false
	}
}

// prepare validates the job and registers the submission. ok=false means
// the Pending already carries a terminal result and nothing was
// registered; ok=true means the caller owns a subWG registration and
// must enqueue (or fail) the returned envelope.
func (e *Engine) prepare(ctx context.Context, j Job) (*Pending, *envelope, bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &Pending{out: make(chan Result, 1)}
	if err := j.Validate(); err != nil {
		p.out <- failedResult(j, err)
		return p, nil, false
	}
	// Deterministically refuse dead contexts before enqueueing.
	if err := ctx.Err(); err != nil {
		p.out <- failedResult(j, err)
		return p, nil, false
	}
	j.Examples = cloneExamples(j.Examples)
	env := &envelope{ctx: ctx, job: j, out: p.out, enqueued: time.Now()}
	// Register with subWG under the read lock, but do the (possibly
	// blocking) enqueue outside it: Close waits for registered Submits
	// before its final drain, and closing done wakes a Submit blocked on
	// a full queue.
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		p.out <- failedResult(j, ErrClosed)
		return p, nil, false
	}
	e.subWG.Add(1)
	e.closeMu.RUnlock()
	return p, env, true
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
		env.out <- failedResult(j, ErrClosed)
		return
	default:
	}
	if err := env.ctx.Err(); err != nil {
		env.out <- failedResult(j, err)
		return
	}
	e.recordWait(time.Since(env.enqueued))
	start := time.Now()

	// Persistent store first: a previously-computed answer (possibly
	// from an earlier process) bypasses dedup and the solvers entirely.
	if res, ok := e.storeLookup(j); ok {
		if j.Trace {
			// No solver ran, so the report is empty save for the flag:
			// zero phases is the trace of a warm hit.
			res.Trace = &obs.Report{StoreHit: true}
		}
		e.deliver(env, j, start, res)
		return
	}
	key := j.fingerprint()
	ctx, cancel := e.jobContext(env.ctx, j)

	// Single-flight: identical jobs already in flight are joined, not
	// recomputed. Followers park in a goroutine so the worker stays free
	// for distinct work.
	if res, led := e.tryLead(ctx, key, j); led {
		cancel()
		e.deliver(env, j, start, res)
		return
	}
	e.waiters.Add(1)
	go func() {
		defer e.waiters.Done()
		defer cancel()
		e.deliver(env, j, start, e.followFlight(ctx, key, j))
	}()
}

// deliver finalizes a result: execution wall time (including any
// single-flight wait), stats, and the caller's channel.
func (e *Engine) deliver(env *envelope, j Job, start time.Time, res Result) {
	res.Elapsed = time.Since(start)
	e.record(j, res)
	env.out <- res
}

// tryLead registers a flight for key if none is live and runs the job as
// its leader; led=false means another flight owns the key and the caller
// must follow it.
func (e *Engine) tryLead(ctx context.Context, key string, j Job) (Result, bool) {
	e.flightMu.Lock()
	if _, ok := e.flights[key]; ok {
		e.flightMu.Unlock()
		return Result{}, false
	}
	f := &flight{done: make(chan struct{})}
	e.flights[key] = f
	e.flightMu.Unlock()
	return e.lead(ctx, key, f, j), true
}

// lead computes the flight's result and publishes it: res is stored, the
// flight is retired (later identical jobs start fresh), then done is
// closed so waiters observe the stored value.
func (e *Engine) lead(ctx context.Context, key string, f *flight, j Job) Result {
	e.dedupLeaders.Add(1)
	res := e.runSolver(ctx, j)
	e.storePut(j, res)
	f.res = res
	e.flightMu.Lock()
	delete(e.flights, key)
	e.flightMu.Unlock()
	close(f.done)
	return res
}

// followFlight resolves a job that found an identical twin in flight: it
// waits for the twin's result, honoring its own deadline, and adopts it
// when shareable. A leader aborted by its own caller (a canceled
// submission context, an earlier-started deadline) yields a result that
// says nothing about this job, so a still-live follower re-enters the
// flight map instead — exactly one waiting follower becomes the new
// leader and the rest re-join its flight, never a recompute stampede.
func (e *Engine) followFlight(ctx context.Context, key string, j Job) Result {
	for {
		e.flightMu.Lock()
		f, ok := e.flights[key]
		if !ok {
			f = &flight{done: make(chan struct{})}
			e.flights[key] = f
			e.flightMu.Unlock()
			return e.lead(ctx, key, f, j)
		}
		e.flightMu.Unlock()
		select {
		case <-f.done:
			if res := f.res; !nonShareable(res.Err) {
				e.dedupShared.Add(1)
				res.Label = j.Label
				// The leader's trace is shared, not this job's own: a
				// traced follower gets a copy marked Shared, an
				// untraced one gets no trace at all.
				if res.Trace != nil {
					if j.Trace {
						t := res.Trace.Clone()
						t.Shared = true
						res.Trace = t
					} else {
						res.Trace = nil
					}
				}
				return res
			}
			if ctx.Err() != nil {
				return failedResult(j, e.closeErr(ctx))
			}
		case <-ctx.Done():
			return failedResult(j, e.closeErr(ctx))
		case <-e.done:
			return failedResult(j, ErrClosed)
		}
	}
}

// nonShareable reports that err describes the fate of one particular
// submission (canceled caller, expired deadline, closing engine) rather
// than a property of the job itself, so a twin job must not adopt it.
func nonShareable(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrClosed)
}

// jobContext derives the solver context for one execution: the job's (or
// engine default) timeout on top of the submission context, with
// cancellation linked to engine Close. The returned cancel releases both
// links and must always be called.
func (e *Engine) jobContext(parent context.Context, j Job) (context.Context, context.CancelFunc) {
	timeout := j.Timeout
	if timeout <= 0 {
		timeout = e.opts.DefaultTimeout
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, timeout)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	stop := context.AfterFunc(e.rootCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// runSolver executes the job on a dedicated goroutine with the engine's
// memo attached to the solver context, and returns as soon as the job
// finishes or ctx is done. The algorithms check ctx inside their search
// loops, so on cancellation the solver goroutine unwinds within a few
// search steps instead of running the computation to completion.
//
// For traced jobs a fresh recorder rides the solver context; the root
// solve span opens and closes on the solver goroutine itself, so its
// duration is pure solver wall time. A job abandoned by its deadline
// still yields a (partial) report — the recorder is snapshot-safe
// against the unwinding goroutine.
func (e *Engine) runSolver(ctx context.Context, j Job) Result {
	solveCtx := e.solverContext(ctx)
	var rec *obs.Recorder
	if j.Trace {
		rec = obs.NewRecorder()
		solveCtx = obs.WithRecorder(solveCtx, rec)
	}
	ch := make(chan Result, 1)
	e.solvers.Add(1)
	e.solverRuns.Add(1)
	go func() {
		defer e.solvers.Add(-1)
		res := func() Result {
			sp := rec.StartSpan(obs.PhaseSolve)
			defer sp.End()
			return run(solveCtx, j)
		}()
		ch <- res
	}()
	select {
	case res := <-ch:
		res.Trace = e.finishTrace(rec)
		return res
	case <-ctx.Done():
		res := failedResult(j, e.closeErr(ctx))
		res.Trace = e.finishTrace(rec)
		return res
	case <-e.done:
		res := failedResult(j, ErrClosed)
		res.Trace = e.finishTrace(rec)
		return res
	}
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
// job's context: the memo (when enabled), the hypergraph decomposition
// cache, the compiled candidate universes, the dispatch-path counters,
// and the compact-search arena and worker budget. ForceBacktrack pins
// the hom dispatch mode so the join-tree fast path never engages.
func (e *Engine) solverContext(ctx context.Context) context.Context {
	if e.memo != nil {
		ctx = withEngineCaches(ctx, e.memo)
	}
	ctx = hypergraph.WithCache(ctx, e.decomp)
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
	// ActiveSolvers counts solver goroutines currently running; after
	// deadlines or Close it settles back to zero promptly because the
	// searches are interruptible.
	ActiveSolvers int64 `json:"active_solvers"`
	// SolverRuns counts solver goroutines ever launched; a warm store
	// or memo path leaves it untouched, so the zero-recompute claim of
	// the persistence layer is directly observable.
	SolverRuns int64 `json:"solver_runs"`
	// DedupLeaders counts computations actually performed; DedupShared
	// counts jobs that adopted the result of an identical in-flight job
	// (followers that had to recompute count as leaders instead).
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
	// the join-tree fast path for α-acyclic sources vs the generic
	// backtracking solver.
	Dispatch DispatchStats `json:"hom_dispatch"`
	// Durations holds the fixed-bucket latency histograms (cqfitd turns
	// them into Prometheus histogram families).
	Durations DurationStats `json:"durations"`
}

// DispatchStats counts hom-search dispatch decisions per path.
type DispatchStats struct {
	JoinTree  int64 `json:"jointree"`
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
	s.Dispatch.JoinTree, s.Dispatch.Backtrack = e.dispatch.Snapshot()
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
