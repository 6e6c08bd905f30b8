package compact

import (
	"slices"
	"sync"
	"sync/atomic"

	"extremalcq/internal/obs"
	"extremalcq/internal/solve"
)

// This file is the parallel splitter: the top levels of the
// backtracking tree are expanded (each child propagated to its GAC
// fixpoint) into a deterministic list of prefix jobs — each a
// propagated domain snapshot — which a bounded worker pool drains through a shared atomic cursor
// (idle workers steal the next unclaimed prefix). Find is
// first-witness-wins: the winner sets a stop flag every worker checks
// at each node. FindAll buffers each prefix's answers and merges them
// back in prefix order, so the enumeration order is deterministic for a
// fixed split regardless of worker count or scheduling. Cancellation
// unwinds (solve.Check panics) are recovered inside each worker and
// re-raised on the calling goroutine after the pool has joined, so the
// engine's solve.Catch sees exactly what the sequential path would
// deliver, and counters stay exact — every worker reports into the
// same atomic obs recorder.

// splitFactor scales the prefix-job target: enough jobs per worker
// that an uneven tree still load-balances through the shared cursor.
const splitFactor = 4

// maxSplitExpansions bounds the splitter's BFS so a long chain of
// forced (single-child) expansions cannot stall the launch.
const maxSplitExpansions = 512

// stopFlag is the shared early-stop signal. Nil-safe: a sequential
// search carries nil and never stops early.
type stopFlag struct{ v atomic.Bool }

func (f *stopFlag) stopped() bool {
	if f == nil {
		return false
	}
	return f.v.Load()
}

func (f *stopFlag) set() {
	if f != nil {
		f.v.Store(true)
	}
}

// reset loads a prefix snapshot into the searcher, superseding any
// previous job's state (stale trail entries and save epochs are
// invalidated by the epoch bump).
func (s *searcher) reset(state []uint64) {
	copy(s.dom, state)
	s.trail = s.trail[:0]
	s.epoch++
}

// split expands the top of the search tree, from the searcher's
// propagated root, into up to maxJobs propagated prefix snapshots, in
// deterministic left-to-right order. An empty job list means the
// expansion itself refuted every branch.
func (s *searcher) split(maxJobs int) [][]uint64 {
	queue := [][]uint64{slices.Clone(s.dom)}
	expansions := 0
	i := 0
	for i < len(queue) && len(queue) < maxJobs && expansions < maxSplitExpansions {
		solve.Check(s.ctx)
		s.reset(queue[i])
		v, ok := s.pickVar()
		if !ok {
			// All-singleton prefix: leave it as a (leaf) job.
			i++
			continue
		}
		expansions++
		s.rec.Add(obs.CtrHomNodes, 1)
		var children [][]uint64
		for _, w := range s.candidates(v, 0) {
			m := s.mark()
			s.epoch++
			s.assign(v, w)
			if s.propagateFrom(v) {
				children = append(children, slices.Clone(s.dom))
			} else {
				s.rec.Add(obs.CtrHomBacktracks, 1)
			}
			s.undo(m)
		}
		// Splice the children in where the parent sat, preserving
		// left-to-right tree order.
		rest := append(children, queue[i+1:]...)
		queue = append(queue[:i], rest...)
	}
	return queue
}

// findParallel races workers over the prefix jobs split from the
// searcher's propagated root; the first witness wins, and yield gets
// it on the calling goroutine once the pool has joined. A single job
// continues on the searcher itself.
func (s *searcher) findParallel(workers int, yield func([]uint32) bool) {
	r, ctx := s.r, s.ctx
	jobs := s.split(splitFactor * workers)
	if len(jobs) <= 1 {
		if len(jobs) == 1 {
			s.reset(jobs[0])
			s.search(0, yield)
		}
		return
	}
	var (
		stop     stopFlag
		cursor   atomic.Int64
		mu       sync.Mutex
		found    []uint32
		panicked any
	)
	var wg sync.WaitGroup
	for n := min(workers, len(jobs)); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if panicked == nil {
						panicked = p
					}
					mu.Unlock()
					stop.set()
				}
			}()
			ws := r.newSearcher(ctx, r.init, &stop)
			defer ws.release()
			for {
				solve.Check(ctx)
				i := int(cursor.Add(1) - 1)
				if i >= len(jobs) || stop.stopped() {
					return
				}
				ws.reset(jobs[i])
				ws.search(0, func(sol []uint32) bool {
					mu.Lock()
					if found == nil {
						found = slices.Clone(sol)
					}
					mu.Unlock()
					stop.set()
					return false
				})
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if found != nil {
		yield(found)
	}
}

// findAllParallel enumerates the prefix jobs split from the searcher's
// propagated root across the worker pool and yields the buffered
// answers in prefix order. A single job continues on the searcher
// itself.
func (s *searcher) findAllParallel(workers int, yield func([]uint32) bool) {
	r, ctx := s.r, s.ctx
	jobs := s.split(splitFactor * workers)
	if len(jobs) <= 1 {
		if len(jobs) == 1 {
			s.reset(jobs[0])
			s.search(0, yield)
		}
		return
	}
	var (
		stop     stopFlag
		cursor   atomic.Int64
		mu       sync.Mutex
		panicked any
	)
	results := make([][][]uint32, len(jobs))
	done := make([]bool, len(jobs))
	ready := sync.NewCond(&mu)
	var wg sync.WaitGroup
	for n := min(workers, len(jobs)); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if panicked == nil {
						panicked = p
					}
					mu.Unlock()
					stop.set()
					ready.Broadcast()
				}
			}()
			ws := r.newSearcher(ctx, r.init, &stop)
			defer ws.release()
			for {
				solve.Check(ctx)
				i := int(cursor.Add(1) - 1)
				if i >= len(jobs) || stop.stopped() {
					return
				}
				ws.reset(jobs[i])
				var buf [][]uint32
				ws.search(0, func(sol []uint32) bool {
					buf = append(buf, slices.Clone(sol))
					return true
				})
				mu.Lock()
				results[i], done[i] = buf, true
				mu.Unlock()
				ready.Broadcast()
			}
		}()
	}
	// Drain in prefix order on the calling goroutine: job i's batch is
	// yielded as soon as it lands, while later jobs keep computing.
drain:
	for i := range jobs {
		mu.Lock()
		//cqlint:ignore ctxloop -- woken by worker Broadcasts; worker cancellation records the unwind in panicked and breaks the wait
		for !done[i] && panicked == nil {
			ready.Wait()
		}
		if panicked != nil {
			mu.Unlock()
			break drain
		}
		batch := results[i]
		results[i] = nil
		mu.Unlock()
		for _, sol := range batch {
			if !yield(sol) {
				stop.set()
				break drain
			}
		}
	}
	wg.Wait()
	mu.Lock()
	p := panicked
	mu.Unlock()
	if p != nil {
		panic(p)
	}
}
