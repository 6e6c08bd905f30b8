package engine

import (
	"encoding/json"
	"slices"

	"extremalcq/internal/obs"
	"extremalcq/internal/store"
)

// This file threads the persistent result store (internal/store)
// through the engine: completed flights are written behind
// asynchronously keyed by job fingerprint, and lookups run before
// single-flight dedup and the solvers, so a persisted hit bypasses
// computation entirely — including across process restarts.

// storedResultVersion versions the persisted encoding; records with a
// different version are ignored (counted as bad records and treated as
// misses) rather than misdecoded.
const storedResultVersion = 2

// storedResult is the durable form of a successful flight: its
// terminal Result and the frames it emitted (replayed verbatim to a
// warm stream). Frames is omitted when it equals Queries, as it does
// for every task but the UCQ search (candidate frames, one union) and
// a basis that did not verify; a stored empty list means no frames.
// Submission metadata (label, elapsed) and errors are deliberately
// absent: labels are presentation-only, and failures are either
// per-submission fates (deadlines, cancellation) that must not outlive
// the submission, or cheap to rediscover.
type storedResult struct {
	V       int       `json:"v"`
	Frames  *[]string `json:"frames,omitempty"`
	Found   bool      `json:"found"`
	Queries []string  `json:"queries,omitempty"`
	Note    string    `json:"note,omitempty"`
}

// storeWriteQueueSize bounds the write-behind queue; a full queue drops
// writes (counted) rather than stalling result delivery.
const storeWriteQueueSize = 256

// storeWrite is one record for the write-behind queue: a flight
// leader's pre-encoded result, or a memo-spill hom, core or product
// record under its own record kind.
type storeWrite struct {
	kind byte
	key  string
	val  []byte
}

// storeWriter drains the write-behind queue onto the store. It runs as
// a single goroutine per engine, started by New when a store is
// attached, and exits when Close closes the channel after all writers
// have been fenced off.
func (e *Engine) storeWriter() {
	defer close(e.storeWriterDone)
	for w := range e.storeCh {
		//cqlint:ignore errflow -- PutKind counts its own failures in Stats.PutErrors; the write-behind queue has no caller to return to
		e.opts.Store.PutKind(w.kind, w.key, w.val)
	}
}

// enqueueStoreWrite hands an encoded record to the write-behind queue
// without ever blocking, reporting whether it was accepted; the caller
// owns drop accounting, so result drops and discardable spill drops
// stay separate counters. Result writes come from leaders, which Close
// awaits before fencing the queue; memo-spill writes can also come
// through the exported Memo from goroutines Close does not await, so
// the send is guarded: after Close fences the queue (storeClosed under
// storeMu) a late write is dropped instead of panicking on a closed
// channel.
func (e *Engine) enqueueStoreWrite(w storeWrite) bool {
	e.storeMu.RLock()
	defer e.storeMu.RUnlock()
	if e.storeClosed {
		return false
	}
	select {
	case e.storeCh <- w:
		return true
	default:
		return false
	}
}

// storePut enqueues a flight's completed Result and its frames for
// write-behind persistence, keyed by the job's timeout-free storeKey.
// Only leaders call it (twins adopted a result the leader persists),
// and only with res.Err == nil: errors are never durable.
func (e *Engine) storePut(j Job, first bool, f *flight, res Result) {
	if e.opts.Store == nil || res.Err != nil {
		return
	}
	rec := storedResult{V: storedResultVersion, Found: res.Found, Queries: res.Queries, Note: res.Note}
	f.mu.Lock()
	if !slices.Equal(f.frames, res.Queries) {
		frames := append([]string{}, f.frames...)
		rec.Frames = &frames
	}
	f.mu.Unlock()
	val, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if !e.enqueueStoreWrite(storeWrite{kind: store.KindResult, key: j.storeKey(first), val: val}) {
		e.storeDropped.Add(1)
	}
}

// storeLookup consults the persistent store for a completed answer to
// this job (keyed timeout-free, see Job.storeKey). A hit comes back as
// a completed flight that no twin can join, holding the frames to
// replay and the Result (labeled for this submission), without any
// solver work; a miss, or an undecodable or version-skewed record, is
// nil.
func (e *Engine) storeLookup(j Job, first bool) *flight {
	if e.opts.Store == nil {
		return nil
	}
	val, ok := e.opts.Store.Get(j.storeKey(first))
	if !ok {
		return nil
	}
	var sr storedResult
	if err := json.Unmarshal(val, &sr); err != nil || sr.V != storedResultVersion {
		e.storeBadRecords.Add(1)
		return nil
	}
	e.storeHits.Add(1)
	f := &flight{frames: sr.Queries, done: true, final: Result{
		Label:   j.Label,
		Kind:    j.Kind,
		Task:    j.Task,
		Found:   sr.Found,
		Queries: sr.Queries,
		Note:    sr.Note,
	}}
	if sr.Frames != nil {
		f.frames = *sr.Frames
	}
	if j.Trace {
		// No solver ran, so the report is empty save for the flag: zero
		// phases is the trace of a warm hit.
		f.final.Trace = &obs.Report{StoreHit: true}
	}
	return f
}

// StoreStats reports persistent-store activity as seen by this engine,
// embedding the store's own counters (hits/misses/puts/bytes/...).
type StoreStats struct {
	store.Stats
	// WriteQueue is the current depth of the write-behind queue;
	// DroppedWrites counts completions not persisted because the queue
	// was full; BadRecords counts persisted records that failed to
	// decode (version skew) and were served as misses.
	WriteQueue    int   `json:"write_queue"`
	DroppedWrites int64 `json:"dropped_writes"`
	BadRecords    int64 `json:"bad_records"`
}
