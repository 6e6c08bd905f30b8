// Package compact is the interned representation of a homomorphism
// search and its one search: GAC backtracking with popcount-driven MRV
// on a conditioning set C of source variables (cutset.go), finished at
// each leaf by the Yannakakis-style join tree over the rest of the
// source, which C leaves α-acyclic (gyo.go, jointree.go). C = ∅ is the
// join tree alone, for α-acyclic sources, and C = every variable the
// plain backtracker, which also runs the arc-consistency test of
// Proposition 4.7. Each instance is compiled once into a Form (form.go)
// cached on the instance; a search's Rep reads the source's facts and
// the target's relations from the two forms and seeds the candidate
// domains, []uint64 bitsets.
//
// Propagation (generalized arc consistency) is incremental: the root
// queues every source fact, an assignment queues only the assigned
// variable's facts, and a revision that narrows a variable queues that
// variable's other facts. A revision scans the fact's target rows once
// (only the CSR buckets of its smallest non-full domain when there is
// one), ORs every consistent row into per-position support bitsets and
// ANDs each variable's domain with its support. GAC has one greatest
// fixpoint, so every node sees the domains a full re-pass would give.
// Propagation and the backtracking search mutate one shared domain
// array and unwind through a word-level trail instead of cloning it
// per node, so a search node costs a few saved words.
//
// One check beyond GAC runs at the root of a search that branches:
// Hall's condition on cliques of must-differ variables (hall.go), which
// refutes pigeonholes such as K7 → K6, where every edge is arc
// consistent, before the first branch. It only reads the root's
// domains, so a search it does not refute keeps its tree.
//
// The searches check their context at every node, revision and join
// step (a lock-free poll of its Done channel, then solve.Check), so
// deadlines and cancellation unwind them promptly, and search-progress
// counters (obs.CtrHomNodes etc.) go to the job's recorder. Scratch
// state is reusable across searches via an Arena (see arena.go), and a
// single giant check can be split across cores by the parallel driver
// (see parallel.go).
package compact

import (
	"context"
	"math/bits"
	"slices"

	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/solve"
)

// relData is one target relation's facts in CSR form: rows is the flat
// tuple array (arity values per row, interned target ids), and the
// per-position index lists, for each (position, target id) pair, the
// rows holding that id at that position — the FactsWith analogue with
// zero maps on the hot path.
type relData struct {
	arity int
	nrows int
	rows  []uint32
	// idxOff/idxRows form a CSR index: bucket (p, w) spans
	// idxRows[idxOff[p*nt+w] : idxOff[p*nt+w+1]] and lists row numbers r
	// with rows[r*arity+p] == w.
	idxOff  []uint32
	idxRows []uint32
	// differ has bit 8i+j (i < j) set when no row holds equal values at
	// positions i and j, so a homomorphism sends the variables at those
	// positions of a source fact to different values (see hall.go). It
	// is kept for arities up to 8 and is zero above.
	differ uint64
}

// row returns the values of row i.
func (rd *relData) row(i int) []uint32 { return rd.rows[i*rd.arity : (i+1)*rd.arity] }

// cfact is one source fact: its args as interned variable ids.
// firstPos[j] is the least j' with args[j'] == args[j]; positions with
// firstPos[j] != j carry a repeated variable whose images must agree,
// and the positions with firstPos[j] == j name the fact's distinct
// variables. Both slices are windows into slabs shared by every fact.
// The target relation a fact maps into is a property of the search,
// not of the fact: see Rep.rel.
type cfact struct {
	args     []uint32
	firstPos []uint32
}

// Rep is the immutable compact form of one homomorphism search: the
// source's and the target's compiled forms and the seeded domains. The
// sequential searcher, every parallel worker and the join tree share
// it. Build it once per (source, target) pair, choose its Cut, then run
// Find or FindAll; scratch cycles through the arena carried by the
// build context.
type Rep struct {
	nv    int // number of source variables
	nt    int // number of target values
	words int // bitset words per variable domain

	src, dst *Form
	// init is the seeded domain array (pinned variables as singletons,
	// the full target domain otherwise); searches copy it, never mutate.
	init []uint64
	// tuple is the source's distinguished tuple, whose values inside its
	// domain are the pinned variables.
	tuple []instance.Value

	arena *Arena
}

// Build makes the search from the pointed source to the pointed target
// into a Rep: each distinguished element of the source that lies in
// its domain is pinned to the target's element at the same position.
// It reads the source's and the target's compiled forms, compiling an
// instance on its first search (see Form), and only seeds the domains:
// two allocations, the Rep and its domains. Validation —
// equal schemas, arities, a consistent tuple, pinned images in the
// target's domain — is the caller's job (hom.newSearch does it); Build
// never fails, it only produces representations whose search comes up
// empty. The arena carried by ctx (if any) supplies reusable scratch.
func Build(ctx context.Context, from, to instance.Pointed) *Rep {
	src, dst := compile(from.I), compile(to.I)
	r := &Rep{nv: len(src.vals), nt: len(dst.vals), words: max(1, (len(dst.vals)+63)/64),
		src: src, dst: dst, tuple: from.Tuple, arena: arenaFrom(ctx)}

	// Seed domains: the full target domain (the last word's tail
	// masked), then a singleton for each pinned variable.
	r.init = make([]uint64, r.nv*r.words)
	for i := range r.init {
		r.init[i] = ^uint64(0)
	}
	if tail := r.nt % 64; tail != 0 || r.nt == 0 {
		for v := 1; v <= r.nv; v++ {
			r.init[v*r.words-1] = (uint64(1) << tail) - 1
		}
	}
	for i, a := range from.Tuple {
		if v, ok := slices.BinarySearch(src.vals, a); ok {
			d := r.init[v*r.words : (v+1)*r.words]
			clear(d)
			if w, ok := slices.BinarySearch(dst.vals, to.Tuple[i]); ok { // the caller validated the image ∈ dom(to)
				d[w/64] = uint64(1) << (w % 64)
			}
		}
	}
	return r
}

// rel returns the target relation source fact fi maps into, or nil
// when the target has no fact of it (the search is then unsatisfiable).
func (r *Rep) rel(fi int) *relData { return r.dst.byRel[r.src.factRel[fi]] }

// NumVars returns the number of source variables: a solution's length.
func (r *Rep) NumVars() int { return r.nv }

// ToAssignment converts a solution (variable id -> target id) into the
// value-level assignment the hom layer returns.
func (r *Rep) ToAssignment(sol []uint32) map[instance.Value]instance.Value {
	out := make(map[instance.Value]instance.Value, r.nv)
	for v, w := range sol {
		out[r.src.vals[v]] = r.dst.vals[w]
	}
	return out
}

// ---------------------------------------------------------------------
// searcher: mutable search state over a Rep
// ---------------------------------------------------------------------

// trailEntry is one saved domain word: index into dom and its previous
// value. Undoing to a mark replays entries in reverse.
type trailEntry struct {
	word uint32
	old  uint64
}

// searcher is the mutable state of one search (or one parallel
// worker) over a shared Rep. Domains are one flat word array; every
// destructive write saves the word on the trail at most once per epoch
// (decision point), so undoing a node restores exactly the words it
// touched. A searcher lives in arena scratch (see arena.go), so it and
// its buffers outlive it for the next search.
type searcher struct {
	r    *Rep
	ctx  context.Context
	done <-chan struct{} // ctx.Done(), polled by checkpoint
	rec  *obs.Recorder
	// cut is the conditioning set the search branches on; the zero Cut
	// branches on every variable.
	cut Cut

	dom   []uint64
	trail []trailEntry
	// saved[w] holds the epoch at which word w was last trailed; a word
	// is saved once per epoch. Epochs are strictly increasing, never
	// reused, so stale entries are naturally invalid.
	saved []uint64
	epoch uint64

	// cands is a per-depth scratch of candidate target ids, reused
	// across sibling nodes to keep the per-node allocation count flat;
	// sol is the solution vector a leaf yields.
	cands [][]uint32
	sol   []uint32

	// The propagation worklist: a FIFO ring of fact ids (one slot per
	// fact; queued[f] marks the facts in it, so none is in it twice),
	// empty between propagations. FIFO order lets a queued fact collect
	// every narrowing of its variables before its one revision; a LIFO
	// stack revised so much more often that ParityCycle(16..20) searches
	// ran 2–3× slower. sup holds a revision's per-position support
	// bitsets.
	queue  []uint32
	queued []bool
	head   int
	queueN int
	sup    []uint64

	stop *stopFlag // parallel early-stop; nil for sequential searches

	// sc is the arena scratch this searcher lives in; release returns
	// it.
	sc *scratch
}

// newSearcher prepares a searcher over r, in scratch from r's arena,
// with domains copied from from (the seeded init domains, or a split
// prefix snapshot).
func (r *Rep) newSearcher(ctx context.Context, from []uint64, stop *stopFlag) *searcher {
	sc := r.arena.get()
	s := &sc.searcher
	s.r, s.ctx, s.done, s.rec, s.cut, s.stop, s.sc = r, ctx, nil, obs.FromContext(ctx), Cut{}, stop, sc
	if ctx != nil {
		s.done = ctx.Done()
	}
	s.dom = resize(s.dom, len(from))
	copy(s.dom, from)
	s.saved = resize(s.saved, len(from))
	clear(s.saved)
	s.trail = s.trail[:0]
	s.epoch = 1
	// A searcher unwound mid-propagation (a cancellation) parks its
	// scratch with facts still marked queued.
	s.queue = resize(s.queue, len(r.src.facts))
	s.queued = resize(s.queued, len(r.src.facts))
	clear(s.queued)
	s.head, s.queueN = 0, 0
	s.sup = resize(s.sup, r.src.maxArity*r.words)
	s.sol = resize(s.sol, r.nv)
	return s
}

// release returns the searcher's scratch to the arena, dropping its
// references to the search.
func (s *searcher) release() {
	sc, a := s.sc, s.r.arena
	s.r, s.ctx, s.done, s.rec, s.cut, s.stop, s.sc = nil, nil, nil, nil, Cut{}, nil, nil
	a.put(sc)
}

func (s *searcher) domain(v int) []uint64 {
	w := s.r.words
	return s.dom[v*w : (v+1)*w]
}

// checkpoint unwinds the search when its context is done, as
// solve.Check does. It polls the Done channel cached when the searcher
// was made instead of calling ctx.Err, which locks the context's mutex:
// with a checkpoint per revision, ctx.Err took a quarter of cqfitd's CPU
// on solve-1c, much of it contention between the workers of a split
// search, which share one context.
func (s *searcher) checkpoint() { poll(s.ctx, s.done) }

// poll calls solve.Check(ctx) once done, ctx's cached Done channel, is
// closed.
func poll(ctx context.Context, done <-chan struct{}) {
	select {
	case <-done:
		solve.Check(ctx)
	default:
	}
}

// setWord writes dom[idx] = val, saving the old value on the trail once
// per epoch.
func (s *searcher) setWord(idx int, val uint64) {
	if s.saved[idx] != s.epoch {
		s.trail = append(s.trail, trailEntry{word: uint32(idx), old: s.dom[idx]})
		s.saved[idx] = s.epoch
	}
	s.dom[idx] = val
}

// mark returns the current trail position; undo(mark) restores every
// word trailed since.
func (s *searcher) mark() int { return len(s.trail) }

func (s *searcher) undo(m int) {
	for i := len(s.trail) - 1; i >= m; i-- {
		e := s.trail[i]
		s.dom[e.word] = e.old
	}
	s.trail = s.trail[:m]
}

// count returns |dom(v)|.
func (s *searcher) count(v int) int { return ones(s.domain(v)) }

// has reports whether target id w is in dom(v).
func (s *searcher) has(v int, w uint32) bool {
	return s.dom[v*s.r.words+int(w/64)]&(uint64(1)<<(w%64)) != 0
}

// assign narrows dom(v) to the singleton {w} under the current epoch.
func (s *searcher) assign(v int, w uint32) {
	base := v * s.r.words
	for i := 0; i < s.r.words; i++ {
		var nw uint64
		if i == int(w/64) {
			nw = uint64(1) << (w % 64)
		}
		if s.dom[base+i] != nw {
			s.setWord(base+i, nw)
		}
	}
}

// pickVar returns the unassigned variable with the smallest domain > 1
// (popcount MRV, lowest id on ties), or ok=false when all domains are
// singletons. A cutset search picks among the cut's branch variables
// only, by the same rule.
func (s *searcher) pickVar() (v int, ok bool) {
	best, bestN := -1, -1
	if s.cut.forest != nil {
		for _, u := range s.cut.branch {
			if n := s.count(int(u)); n > 1 && (bestN == -1 || n < bestN || n == bestN && int(u) < best) {
				best, bestN = int(u), n
			}
		}
		return best, best != -1
	}
	for u := 0; u < s.r.nv; u++ {
		if n := s.count(u); n > 1 && (bestN == -1 || n < bestN) {
			best, bestN = u, n
		}
	}
	return best, best != -1
}

// candidates appends dom(v)'s target ids to the depth-d scratch slice
// and returns it. The slice is reused by sibling nodes at the same
// depth, never escaping the search.
func (s *searcher) candidates(v, d int) []uint32 {
	//cqlint:ignore ctxloop -- grows the scratch to depth d; at most one append per search depth
	for len(s.cands) <= d {
		s.cands = append(s.cands, nil)
	}
	out := s.cands[d][:0]
	base := v * s.r.words
	for i := 0; i < s.r.words; i++ {
		w := s.dom[base+i]
		//cqlint:ignore ctxloop -- clears one bit per iteration; at most 64 per word
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, uint32(i*64+b))
			w &= w - 1
		}
	}
	s.cands[d] = out
	return out
}

// extract copies the all-singleton domains into the solution vector.
func (s *searcher) extract() []uint32 {
	sol := s.sol
	for v := 0; v < s.r.nv; v++ {
		base := v * s.r.words
		for i := 0; i < s.r.words; i++ {
			if w := s.dom[base+i]; w != 0 {
				sol[v] = uint32(i*64 + bits.TrailingZeros64(w))
				break
			}
		}
	}
	return sol
}

// valid re-checks a full assignment against every source fact (belt and
// braces — a GAC fixpoint over singleton domains already implies it).
func (s *searcher) valid(sol []uint32) bool {
	for fi := range s.r.src.facts {
		rd := s.r.rel(fi)
		if rd == nil || !s.factHolds(&s.r.src.facts[fi], rd, sol) {
			return false
		}
	}
	return true
}

// factHolds reports whether fact f, mapped into rd, holds under sol.
func (s *searcher) factHolds(f *cfact, rd *relData, sol []uint32) bool {
	ar := rd.arity
	if ar == 0 {
		return rd.nrows > 0
	}
	// Probe the CSR index on position 0 and scan candidates.
	w0 := sol[f.args[0]]
	b := 0*s.r.nt + int(w0)
	for _, row := range rd.idxRows[rd.idxOff[b]:rd.idxOff[b+1]] {
		match := true
		for j := 1; j < ar; j++ {
			if rd.rows[int(row)*ar+j] != sol[f.args[j]] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// propagation (generalized arc consistency)
// ---------------------------------------------------------------------

// push queues fact fi unless it is already queued.
func (s *searcher) push(fi uint32) {
	if s.queued[fi] {
		return
	}
	s.queued[fi] = true
	i := s.head + s.queueN
	if i >= len(s.queue) {
		i -= len(s.queue)
	}
	s.queue[i] = fi
	s.queueN++
}

// pop dequeues the oldest queued fact.
func (s *searcher) pop() uint32 {
	fi := s.queue[s.head]
	s.queued[fi] = false
	s.head++
	if s.head == len(s.queue) {
		s.head = 0
	}
	s.queueN--
	return fi
}

// pushFactsOf queues every fact variable v occurs in, except skip.
func (s *searcher) pushFactsOf(v int, skip uint32) {
	r := s.r
	for _, fi := range r.src.varFacts[r.src.varOff[v]:r.src.varOff[v+1]] {
		if fi != skip {
			s.push(fi)
		}
	}
}

// propagateAll enforces GAC on every fact: the root propagation.
func (s *searcher) propagateAll() bool {
	for fi := range s.r.src.facts {
		s.push(uint32(fi))
	}
	return s.propagate()
}

// propagateFrom restores GAC after dom(v) was narrowed (an assignment)
// from a state that was arc consistent before: only v's facts can have
// lost support.
func (s *searcher) propagateFrom(v int) bool {
	s.pushFactsOf(v, ^uint32(0))
	return s.propagate()
}

// propagate revises queued facts until the queue empties, narrowing the
// shared domain array in place (every clear is trailed). ok=false means
// some domain emptied; the queue is then emptied too. The solver context
// is checked once per revision, so a large instance cannot delay
// cancellation.
func (s *searcher) propagate() bool {
	for s.queueN > 0 {
		s.checkpoint()
		if !s.revise(s.pop()) {
			for i := 0; i < s.queueN; i++ {
				s.queued[s.queue[(s.head+i)%len(s.queue)]] = false
			}
			s.head, s.queueN = 0, 0
			return false
		}
	}
	return true
}

// revise makes fact fi arc consistent in one pass over its target rows:
// a row is kept when each distinct variable's value lies in its domain
// and each repeated variable's values agree; every kept row's values go
// into their positions' support bitsets, and each distinct variable's
// domain is ANDed with its support. Rows are read from the CSR buckets
// of the pivot — the distinct variable with the smallest domain — when
// that domain is not full, and all rows are scanned otherwise. A
// variable the revision narrows queues its other facts; fi itself stays
// consistent, since every kept row survives the narrowing. Returns
// false when a domain empties.
func (s *searcher) revise(fi uint32) bool {
	r := s.r
	f, rd := &r.src.facts[fi], r.rel(int(fi))
	if rd == nil {
		// Source relation with no target facts: unsatisfiable.
		return false
	}
	ar, words := rd.arity, r.words
	pivot, pivotN := -1, r.nt
	for j := 0; j < ar; j++ {
		if f.firstPos[j] == uint32(j) {
			if n := s.count(int(f.args[j])); n < pivotN {
				pivot, pivotN = j, n
			}
		}
	}
	sup := s.sup[:ar*words]
	clear(sup)
	if pivot < 0 {
		for row := 0; row < rd.nrows; row++ {
			s.support(f, rd, row, sup)
		}
	} else {
		base := int(f.args[pivot]) * words
		for i := 0; i < words; i++ {
			//cqlint:ignore ctxloop -- clears one bit per iteration; at most 64 per word
			for bw := s.dom[base+i]; bw != 0; bw &= bw - 1 {
				b := pivot*r.nt + i*64 + bits.TrailingZeros64(bw)
				for _, row := range rd.idxRows[rd.idxOff[b]:rd.idxOff[b+1]] {
					s.support(f, rd, int(row), sup)
				}
			}
		}
	}
	removed := 0
	for j := 0; j < ar; j++ {
		if f.firstPos[j] != uint32(j) {
			continue
		}
		v := int(f.args[j])
		base := v * words
		alive, narrowed := false, false
		for i := 0; i < words; i++ {
			old := s.dom[base+i]
			kept := old & sup[j*words+i]
			if kept != old {
				s.setWord(base+i, kept)
				removed += bits.OnesCount64(old &^ kept)
				narrowed = true
			}
			alive = alive || kept != 0
		}
		if !alive {
			s.rec.Add(obs.CtrHomPrunings, int64(removed))
			return false
		}
		if narrowed {
			s.pushFactsOf(v, fi)
		}
	}
	if removed > 0 {
		s.rec.Add(obs.CtrHomPrunings, int64(removed))
	}
	return true
}

// support ORs row's values into sup, position by position, when row of
// rd is consistent with fact f under the current domains.
func (s *searcher) support(f *cfact, rd *relData, row int, sup []uint64) {
	ar, words := rd.arity, s.r.words
	vals := rd.rows[row*ar : (row+1)*ar]
	for k, w := range vals {
		if fp := f.firstPos[k]; fp != uint32(k) {
			if vals[fp] != w {
				return
			}
		} else if !s.has(int(f.args[k]), w) {
			return
		}
	}
	for k, w := range vals {
		if f.firstPos[k] == uint32(k) {
			sup[k*words+int(w/64)] |= uint64(1) << (w % 64)
		}
	}
}

// ---------------------------------------------------------------------
// the search
// ---------------------------------------------------------------------

// search branches from the current domains with GAC and MRV, on the
// cut's branch variables or on every variable, and yields each leaf's
// solutions; it returns false once yield or the parallel stop flag
// ended the search. depth indexes the candidate scratch.
func (s *searcher) search(depth int, yield func([]uint32) bool) bool {
	s.checkpoint()
	if s.stop.stopped() {
		return false
	}
	s.rec.Add(obs.CtrHomNodes, 1)
	v, ok := s.pickVar()
	if !ok {
		return s.leaf(yield)
	}
	for _, w := range s.candidates(v, depth) {
		m := s.mark()
		s.epoch++
		s.assign(v, w)
		if s.propagateFrom(v) && !s.search(depth+1, yield) {
			s.undo(m)
			return false
		}
		s.undo(m)
	}
	s.rec.Add(obs.CtrHomBacktracks, 1)
	return true
}

// leaf finishes a branch whose domains are at a GAC fixpoint: a cutset
// leaf runs the join tree over the cut's forest from its domains, a
// backtracking leaf, every domain a singleton, yields that one
// solution.
func (s *searcher) leaf(yield func([]uint32) bool) bool {
	if s.cut.forest != nil {
		s.rec.Add(obs.CtrCutsetLeaves, 1)
		return s.join(yield)
	}
	sol := s.extract()
	if !s.valid(sol) {
		s.rec.Add(obs.CtrHomBacktracks, 1)
		return true
	}
	return yield(sol)
}

// Find reports whether a homomorphism exists, searching under the cut
// c (see run), and copies the one it finds into sol unless sol is nil;
// a non-nil sol has NumVars entries. With workers > 1 a backtracking
// search races over the splitter's prefixes and the first witness
// wins. The Path says how the search went.
func (r *Rep) Find(ctx context.Context, c Cut, workers int, sol []uint32) (bool, Path) {
	found := false
	path := r.run(ctx, c, workers, true, func(s []uint32) bool {
		found = true
		copy(sol, s)
		return false
	})
	return found, path
}

// FindAll enumerates every solution under the cut c (see run), yielding
// each until yield returns false. The yielded slice is reused: yield
// must copy what it keeps. With workers > 1 a backtracking search
// splits the top of its tree across a worker pool and yields the
// per-prefix batches in prefix order, so the order does not depend on
// the worker count. The Path says how the search went.
func (r *Rep) FindAll(ctx context.Context, c Cut, workers int, yield func([]uint32) bool) Path {
	return r.run(ctx, c, workers, false, yield)
}

// run is the one search. A cut without branch variables is one
// join-tree pass over the seeded domains: the join tree itself when C
// = ∅, a cutset leaf when C holds only pinned variables. Any other
// search propagates the root and checks Hall's condition there (see
// hall.go), then branches on the cut's variables when the product of
// their domain sizes is within leafBudget, and on every variable, with
// the splitter at workers > 1, when it is not or when c is the zero
// Cut. A search the Hall check refutes reports the path it would have
// taken. first selects the splitter's first-witness race over its
// ordered enumeration. Yield runs on the calling goroutine.
func (r *Rep) run(ctx context.Context, c Cut, workers int, first bool, yield func([]uint32) bool) Path {
	s := r.newSearcher(ctx, r.init, nil)
	defer s.release()
	if c.forest != nil && len(c.branch) == 0 {
		s.cut = c
		if !c.cond {
			s.join(yield)
			return PathJoinTree
		}
		s.leaf(yield)
		return PathCutset
	}
	if !s.propagateAll() {
		if c.forest != nil {
			return PathCutset
		}
		return PathBacktrack
	}
	refuted := s.hall()
	cutset := c.forest != nil && s.leaves(c.branch) <= leafBudget
	switch {
	case refuted:
		s.rec.Add(obs.CtrHallRefutations, 1)
	case cutset:
		s.cut = c
		s.search(0, yield)
	case workers > 1 && first:
		s.findParallel(workers, yield)
	case workers > 1:
		s.findAllParallel(workers, yield)
	default:
		s.search(0, yield)
	}
	if cutset {
		return PathCutset
	}
	return PathBacktrack
}

// ArcConsistent enforces generalized arc consistency on the seeded
// domains and reports whether every domain stays non-empty: the
// propagation Find and FindAll run before their first branch.
func (r *Rep) ArcConsistent(ctx context.Context) bool {
	s := r.newSearcher(ctx, r.init, nil)
	defer s.release()
	return s.propagateAll()
}

// resize returns buf resized to n elements, reallocating only when the
// capacity is short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
