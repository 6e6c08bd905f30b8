// Package compact is the interned, cache-friendly representation of a
// homomorphism search and the bitset backtracking engine that runs on
// it: every search the join-tree evaluator does not serve, and the
// arc-consistency test of Proposition 4.7, run here.
//
// Per search, source variables and target values are interned to dense
// uint32 ids, target facts are stored per relation as CSR-style
// adjacency arrays (one flat row array plus a per-(position,value)
// row index), source facts index their variables and each variable
// the facts it occurs in (a var→fact CSR), and candidate domains are
// []uint64 bitsets with popcount-driven MRV ordering.
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
// The search checks its context at every node and every revision (a
// lock-free poll of its Done channel, then solve.Check), so deadlines
// and cancellation unwind it promptly, and search-progress counters
// (obs.CtrHomNodes etc.) go to the job's recorder. Scratch state is
// reusable across searches via an Arena (see arena.go), and a single
// giant check can be split across cores by the parallel driver (see
// parallel.go).
package compact

import (
	"context"
	"math/bits"

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
}

// cfact is one source fact: its args as interned variable ids and a
// pointer to the target relation's data (nil when the target has no
// facts of that relation — the search is then trivially unsatisfiable).
// firstPos[j] is the least j' with args[j'] == args[j]; positions with
// firstPos[j] != j carry a repeated variable whose images must agree,
// and the positions with firstPos[j] == j name the fact's distinct
// variables. Both slices are windows into slabs shared by every fact.
type cfact struct {
	rel      *relData
	args     []uint32
	firstPos []uint32
}

// Rep is the immutable compact form of one homomorphism search: the
// interned problem shared by the sequential searcher and every parallel
// worker. Build it once per (source, target) pair, then run Find or
// FindAll; searcher scratch cycles through the arena carried by the
// build context.
type Rep struct {
	nv    int // number of source variables
	nt    int // number of target values
	words int // bitset words per variable domain

	vars  []instance.Value // variable id -> source value
	tvals []instance.Value // target id -> target value
	facts []cfact
	// varOff/varFacts form the var→fact CSR: the facts variable v occurs
	// in, each once and in increasing order, are
	// varFacts[varOff[v]:varOff[v+1]].
	varOff   []uint32
	varFacts []uint32
	maxArity int // widest source fact: sizes a revision's support scratch
	// init is the seeded domain array (pinned variables as singletons,
	// the full target domain otherwise); searches copy it, never mutate.
	init []uint64

	arena *Arena
}

// Build interns the search (source instance, target instance, pinned
// images of distinguished elements inside the source's domain) into a
// Rep. Validation — schemas, arities, equality types, pinned images in
// the target's domain — is the caller's job (hom.newSearch does it);
// Build never fails, it only produces representations whose search
// comes up empty. The arena carried by ctx (if any) supplies reusable
// scratch.
func Build(ctx context.Context, from, to *instance.Instance, pinned map[instance.Value]instance.Value) *Rep {
	r := &Rep{arena: arenaFrom(ctx)}
	r.vars = from.Dom()
	r.tvals = to.Dom()
	r.nv = len(r.vars)
	r.nt = len(r.tvals)
	r.words = (r.nt + 63) / 64
	if r.words == 0 {
		r.words = 1
	}

	varID := make(map[instance.Value]uint32, r.nv)
	for i, v := range r.vars {
		varID[v] = uint32(i)
	}
	tID := make(map[instance.Value]uint32, r.nt)
	for i, w := range r.tvals {
		tID[w] = uint32(i)
	}

	// Target relations, built lazily per relation symbol the source uses.
	rels := make(map[string]*relData)
	relOf := func(name string) *relData {
		if rd, ok := rels[name]; ok {
			return rd
		}
		fs := to.FactsOf(name)
		if len(fs) == 0 {
			rels[name] = nil
			return nil
		}
		// One slab per relation: the rows, then the CSR index offsets, then
		// the bucket lists.
		ar, nrows := len(fs[0].Args), len(fs)
		rowsEnd := ar * nrows
		offEnd := rowsEnd + ar*r.nt + 1
		slab := make([]uint32, offEnd+ar*nrows)
		rd := &relData{arity: ar, nrows: nrows, rows: slab[:rowsEnd:rowsEnd],
			idxOff: slab[rowsEnd:offEnd:offEnd], idxRows: slab[offEnd:]}
		for row, g := range fs {
			for p, a := range g.Args {
				w := tID[a]
				rd.rows[row*ar+p] = w
				rd.idxOff[p*r.nt+int(w)+1]++
			}
		}
		csrStarts(rd.idxOff)
		for row := 0; row < nrows; row++ {
			for p := 0; p < ar; p++ {
				b := p*r.nt + int(rd.rows[row*ar+p])
				rd.idxRows[rd.idxOff[b]] = uint32(row)
				rd.idxOff[b]++
			}
		}
		csrEnds(rd.idxOff)
		rels[name] = rd
		return rd
	}

	// Source facts. The equality types go in one slab; the args, then the
	// var→fact offsets and lists, in another.
	facts := from.Facts()
	nargs := 0
	for _, f := range facts {
		nargs += len(f.Args)
		r.maxArity = max(r.maxArity, len(f.Args))
	}
	firstPos := make([]uint32, nargs)
	distinct, off := 0, 0
	for _, f := range facts {
		for j, a := range f.Args {
			fp := j
			for k := 0; k < j; k++ {
				if f.Args[k] == a {
					fp = k
					break
				}
			}
			firstPos[off+j] = uint32(fp)
			if fp == j {
				distinct++
			}
		}
		off += len(f.Args)
	}
	offEnd := nargs + r.nv + 1
	slab := make([]uint32, offEnd+distinct)
	args := slab[:nargs:nargs]
	r.varOff = slab[nargs:offEnd:offEnd]
	r.varFacts = slab[offEnd:]
	r.facts = make([]cfact, len(facts))
	off = 0
	for i, f := range facts {
		end := off + len(f.Args)
		cf := &r.facts[i]
		cf.rel = relOf(f.Rel)
		cf.args = args[off:end:end]
		cf.firstPos = firstPos[off:end:end]
		for j, a := range f.Args {
			v := varID[a]
			cf.args[j] = v
			if cf.firstPos[j] == uint32(j) {
				r.varOff[v+1]++
			}
		}
		off = end
	}
	csrStarts(r.varOff)
	for i := range r.facts {
		f := &r.facts[i]
		for j, v := range f.args {
			if f.firstPos[j] == uint32(j) {
				r.varFacts[r.varOff[v]] = uint32(i)
				r.varOff[v]++
			}
		}
	}
	csrEnds(r.varOff)

	// Seed domains: pinned variables get a singleton, the rest the full
	// target domain (mask the last word's tail).
	r.init = make([]uint64, r.nv*r.words)
	for v := 0; v < r.nv; v++ {
		d := r.init[v*r.words : (v+1)*r.words]
		if b, ok := pinned[r.vars[v]]; ok {
			w := tID[b] // caller validated b ∈ dom(to)
			d[w/64] = uint64(1) << (w % 64)
			continue
		}
		for i := range d {
			d[i] = ^uint64(0)
		}
		if tail := r.nt % 64; tail != 0 || r.nt == 0 {
			d[r.words-1] = (uint64(1) << tail) - 1
		}
	}
	return r
}

// A CSR index is filled in place, with no cursor array: the counts go
// in off[b+1], csrStarts turns them into bucket starts, the fill
// appends bucket b's items at off[b] and advances it, and csrEnds shifts
// the advanced cursors back, so bucket b spans items[off[b]:off[b+1]]
// in fill order.

// csrStarts prefix-sums the counts in off[1:], leaving off[b] at the
// start of bucket b.
func csrStarts(off []uint32) {
	for b := 1; b < len(off); b++ {
		off[b] += off[b-1]
	}
}

// csrEnds restores the offsets after the fill advanced every cursor
// off[b] to the end of bucket b, which is where bucket b+1 starts.
func csrEnds(off []uint32) {
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}

// ToAssignment converts a solution (variable id -> target id) into the
// value-level assignment the hom layer returns.
func (r *Rep) ToAssignment(sol []uint32) map[instance.Value]instance.Value {
	out := make(map[instance.Value]instance.Value, r.nv)
	for v, w := range sol {
		out[r.vars[v]] = r.tvals[w]
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

// searcher is the mutable state of one backtracking search (or one
// parallel worker) over a shared Rep. Domains are one flat word array;
// every destructive write saves the word on the trail at most once per
// epoch (decision point), so undoing a node restores exactly the words
// it touched.
type searcher struct {
	r    *Rep
	ctx  context.Context
	done <-chan struct{} // ctx.Done(), polled by checkpoint
	rec  *obs.Recorder

	dom   []uint64
	trail []trailEntry
	// saved[w] holds the epoch at which word w was last trailed; a word
	// is saved once per epoch. Epochs are strictly increasing, never
	// reused, so stale entries are naturally invalid.
	saved []uint64
	epoch uint64

	// cands is a per-depth scratch of candidate target ids, reused
	// across sibling nodes to keep the per-node allocation count flat.
	cands [][]uint32

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

	// parked is the arena scratch this searcher borrowed; release
	// refills and returns it.
	parked *scratch
}

// newSearcher prepares a searcher over r with domains copied from from
// (the seeded init domains, or a split prefix snapshot).
func (r *Rep) newSearcher(ctx context.Context, from []uint64, stop *stopFlag) *searcher {
	s := &searcher{r: r, ctx: ctx, rec: obs.FromContext(ctx), stop: stop}
	if ctx != nil {
		s.done = ctx.Done()
	}
	sc := r.arena.get()
	s.dom = resize(sc.dom, len(from))
	copy(s.dom, from)
	s.saved = resize(sc.saved, len(from))
	clear(s.saved)
	s.trail = sc.trail[:0]
	s.cands = sc.cands
	s.epoch = 1
	// A searcher unwound mid-propagation (a cancellation) parks its
	// scratch with facts still marked queued.
	s.queue = resize(sc.queue, len(r.facts))
	s.queued = resize(sc.queued, len(r.facts))
	clear(s.queued)
	s.sup = resize(sc.sup, r.maxArity*r.words)
	*sc = scratch{}
	s.parked = sc
	return s
}

// release returns the searcher's buffers to the arena.
func (s *searcher) release() {
	if s.parked == nil {
		return
	}
	*s.parked = scratch{dom: s.dom, saved: s.saved, trail: s.trail, cands: s.cands,
		queue: s.queue, queued: s.queued, sup: s.sup}
	s.r.arena.put(s.parked)
	s.parked = nil
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
func (s *searcher) checkpoint() {
	select {
	case <-s.done:
		solve.Check(s.ctx)
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
func (s *searcher) count(v int) int {
	n := 0
	for _, w := range s.domain(v) {
		n += bits.OnesCount64(w)
	}
	return n
}

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
// singletons.
func (s *searcher) pickVar() (v int, ok bool) {
	best, bestN := -1, -1
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

// extract copies the all-singleton domains into a solution vector.
func (s *searcher) extract() []uint32 {
	sol := make([]uint32, s.r.nv)
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
	for fi := range s.r.facts {
		f := &s.r.facts[fi]
		if f.rel == nil {
			return false
		}
		if !s.factHolds(f, sol) {
			return false
		}
	}
	return true
}

func (s *searcher) factHolds(f *cfact, sol []uint32) bool {
	rd := f.rel
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
	for _, fi := range r.varFacts[r.varOff[v]:r.varOff[v+1]] {
		if fi != skip {
			s.push(fi)
		}
	}
}

// propagateAll enforces GAC on every fact: the root propagation.
func (s *searcher) propagateAll() bool {
	for fi := range s.r.facts {
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
	f := &r.facts[fi]
	rd := f.rel
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
			s.support(f, row, sup)
		}
	} else {
		base := int(f.args[pivot]) * words
		for i := 0; i < words; i++ {
			//cqlint:ignore ctxloop -- clears one bit per iteration; at most 64 per word
			for bw := s.dom[base+i]; bw != 0; bw &= bw - 1 {
				b := pivot*r.nt + i*64 + bits.TrailingZeros64(bw)
				for _, row := range rd.idxRows[rd.idxOff[b]:rd.idxOff[b+1]] {
					s.support(f, int(row), sup)
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

// support ORs row's values into sup, position by position, when the row
// is consistent with fact f under the current domains.
func (s *searcher) support(f *cfact, row int, sup []uint64) {
	rd := f.rel
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
// sequential search
// ---------------------------------------------------------------------

// find runs GAC-based backtracking from the current domains and returns
// one solution or nil. depth indexes the candidate scratch.
func (s *searcher) find(depth int) []uint32 {
	s.checkpoint()
	if s.stop.stopped() {
		return nil
	}
	s.rec.Add(obs.CtrHomNodes, 1)
	v, ok := s.pickVar()
	if !ok {
		sol := s.extract()
		if s.valid(sol) {
			return sol
		}
		s.rec.Add(obs.CtrHomBacktracks, 1)
		return nil
	}
	for _, w := range s.candidates(v, depth) {
		m := s.mark()
		s.epoch++
		s.assign(v, w)
		if s.propagateFrom(v) {
			if sol := s.find(depth + 1); sol != nil {
				return sol
			}
		}
		s.undo(m)
	}
	s.rec.Add(obs.CtrHomBacktracks, 1)
	return nil
}

// enum enumerates every solution below the current domains, yielding
// each; returns false when enumeration should stop.
func (s *searcher) enum(depth int, yield func([]uint32) bool) bool {
	s.checkpoint()
	if s.stop.stopped() {
		return false
	}
	s.rec.Add(obs.CtrHomNodes, 1)
	v, ok := s.pickVar()
	if !ok {
		sol := s.extract()
		if !s.valid(sol) {
			return true
		}
		return yield(sol)
	}
	for _, w := range s.candidates(v, depth) {
		m := s.mark()
		s.epoch++
		s.assign(v, w)
		if s.propagateFrom(v) {
			if !s.enum(depth+1, yield) {
				s.undo(m)
				return false
			}
		}
		s.undo(m)
	}
	return true
}

// Find returns one solution (variable id -> target id) using up to
// workers parallel search workers (<= 1, or a search too small to
// split, runs sequentially). First witness wins; losers stop at their
// next node.
func (r *Rep) Find(ctx context.Context, workers int) ([]uint32, bool) {
	if workers > 1 {
		if sol, ok, split := r.findParallel(ctx, workers); split {
			return sol, ok
		}
	}
	s := r.newSearcher(ctx, r.init, nil)
	defer s.release()
	if !s.propagateAll() {
		return nil, false
	}
	sol := s.find(0)
	return sol, sol != nil
}

// FindAll enumerates every solution, yielding each until yield returns
// false. With workers > 1 the top of the search tree is split across a
// worker pool and the per-prefix answer batches are merged back in
// deterministic prefix order.
func (r *Rep) FindAll(ctx context.Context, workers int, yield func([]uint32) bool) {
	if workers > 1 {
		if split := r.findAllParallel(ctx, workers, yield); split {
			return
		}
	}
	s := r.newSearcher(ctx, r.init, nil)
	defer s.release()
	if !s.propagateAll() {
		return
	}
	s.enum(0, yield)
}

// ArcConsistent enforces generalized arc consistency on the seeded
// domains and reports whether every domain stays non-empty: the
// propagation Find and FindAll run before their first branch.
func (r *Rep) ArcConsistent(ctx context.Context) bool {
	s := r.newSearcher(ctx, r.init, nil)
	defer s.release()
	return s.propagateAll()
}

// NumVars returns the number of interned source variables.
func (r *Rep) NumVars() int { return r.nv }

// NumTargetValues returns the number of interned target values.
func (r *Rep) NumTargetValues() int { return r.nt }

// resize returns buf resized to n elements, reallocating only when the
// capacity is short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
