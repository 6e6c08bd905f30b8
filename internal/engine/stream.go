package engine

import (
	"context"
	"time"
)

// This file adds the engine's streaming job mode: SubmitStream runs a
// job as an incremental enumeration and delivers each verified answer
// on a channel as soon as it is found, instead of buffering the full
// answer list behind a one-shot Result.
//
// A stream is an ordinary job in the one pipeline (see engine.go): it
// waits in the job queue, and the worker that dequeues it consults the
// store and the flight table like any other job's.
//
//   - Single-flight dedup: identical jobs share one flight, whether
//     streamed or one-shot. A stream's subscriber goroutine replays the
//     frames the flight already emitted and then tails it live. Only a
//     one-shot weakly most-general CQ or tree search, which stops at its
//     first answer, keeps a flight (and store record) of its own.
//   - Cancellation: a flight runs until its last submitter detaches, so
//     a disconnected client (or all of them) stops the solver promptly
//     instead of wasting the rest of the search on nobody.
//   - Persistence: a flight that completes successfully stores its
//     frames next to its Result; a warm re-run replays the answers from
//     the store with zero solver launches.
//
// A stream's leader holds its worker for the whole enumeration, as a
// one-shot basis search does, so Options.Workers bounds every
// concurrent solver and a full queue refuses streams (TrySubmitStream)
// like any other job.

// Answer is one enumerated result frame of a streaming job.
type Answer struct {
	// Index is the answer's 0-based position in the stream.
	Index int `json:"index"`
	// Query is the rendered query text of this answer.
	Query string `json:"query"`
}

// streamBuffer is the per-subscriber channel buffer: enough to decouple
// the enumeration from a briefly-slow consumer without hiding a truly
// stuck one.
const streamBuffer = 16

// Stream is a handle to a streaming job submission. Answers are
// delivered in order on Answers(); after the channel closes, Wait
// returns the terminal summary.
type Stream struct {
	c     chan Answer
	done  chan struct{}
	final Result
}

func newStream() *Stream {
	return &Stream{c: make(chan Answer, streamBuffer), done: make(chan struct{})}
}

// Answers returns the stream's answer channel. It is closed when the
// stream ends — because the enumeration completed, failed, or was
// canceled; Wait reports which.
func (s *Stream) Answers() <-chan Answer { return s.c }

// Wait blocks until the stream has ended and returns the terminal
// summary: Found reports whether any answer was emitted, Queries holds
// the task's final answer list, Err carries a failure or cancellation.
// Unread answers are discarded, so Wait may be called without draining
// Answers first.
func (s *Stream) Wait() Result {
	for range s.c {
	}
	<-s.done
	return s.final
}

// finish publishes the terminal result: final is set before done is
// closed, and the answer channel closes first so receive loops end.
func (s *Stream) finish(res Result) {
	s.final = res
	close(s.c)
	close(s.done)
}

// SubmitStream submits a job in streaming mode and returns immediately
// with a handle delivering each enumerated answer as it is verified.
// Every kind × task combination is accepted: enumeration tasks
// (weakly-most-general and basis searches) emit one frame per answer
// found; single-answer tasks degrade to a stream of their result's
// queries followed by the terminal summary. Like Submit, it blocks
// while the job queue is full.
//
// ctx governs this subscription only: canceling it detaches this
// subscriber, and the shared enumeration is canceled when its last
// submitter detaches.
func (e *Engine) SubmitStream(ctx context.Context, j Job) *Stream {
	s := newStream()
	e.submit(ctx, &envelope{job: j, stream: s}, true)
	return s
}

// TrySubmitStream is SubmitStream without blocking on a full queue:
// like TrySubmit, it declines the job and returns ok=false (and a nil
// Stream) when the job queue has no room. Invalid jobs and dead
// contexts are still accepted and resolve immediately through the
// returned Stream, as in SubmitStream.
func (e *Engine) TrySubmitStream(ctx context.Context, j Job) (*Stream, bool) {
	s := newStream()
	if !e.submit(ctx, &envelope{job: j, stream: s}, false) {
		return nil, false
	}
	return s, true
}

// DoStream runs a streaming job and invokes yield for every answer as
// it arrives, returning the terminal summary. A yield returning false
// detaches early (canceling the enumeration if this was its last
// subscriber).
func (e *Engine) DoStream(ctx context.Context, j Job, yield func(Answer) bool) Result {
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s := e.SubmitStream(subCtx, j)
	for a := range s.Answers() {
		if yield != nil && !yield(a) {
			cancel()
			break
		}
	}
	return s.Wait()
}

// send delivers one frame to a stream, unless its context ends or the
// engine closes first.
func (e *Engine) send(env *envelope, a Answer) bool {
	select {
	case env.stream.c <- a:
		if a.Index == 0 {
			e.recordFirstResult(time.Since(env.enqueued))
		}
		e.streamResults.Add(1)
		return true
	case <-env.ctx.Done():
		return false
	case <-e.done:
		return false
	}
}

// recordFirstResult folds one stream's submit→first-answer latency into
// the time-to-first-result aggregates.
func (e *Engine) recordFirstResult(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.statsMu.Lock()
	e.ttfrCount++
	e.ttfrTotal += d
	if e.ttfrCount == 1 || d < e.ttfrMin {
		e.ttfrMin = d
	}
	if d > e.ttfrMax {
		e.ttfrMax = d
	}
	e.statsMu.Unlock()
}
