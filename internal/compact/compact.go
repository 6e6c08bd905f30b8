// Package compact is the interned, cache-friendly representation of a
// homomorphism search and the bitset backtracking engine that runs on
// it: every search the join-tree evaluator does not serve, and the
// arc-consistency test of Proposition 4.7, run here.
//
// Per search, source variables and target values are interned to dense
// uint32 ids, target facts are stored per relation as CSR-style
// adjacency arrays (one flat row array plus a per-(position,value)
// row index), and candidate domains are []uint64 bitsets with
// popcount-driven MRV ordering. Propagation (generalized arc
// consistency) and the backtracking search mutate one shared domain
// array and unwind through a word-level trail instead of cloning it
// per node, so a search node costs a few saved words.
//
// The search checks its context at every node (solve.Check), so
// deadlines and cancellation unwind it promptly, and search-progress
// counters (obs.CtrHomNodes etc.) go to the job's recorder. Scratch
// state is reusable across searches via an Arena (see arena.go), and a
// single giant check can be split across cores by the parallel driver
// (see parallel.go).
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
// firstPos[j] != j carry a repeated variable whose images must agree.
type cfact struct {
	rel      *relData
	args     []uint32
	firstPos []uint8
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
		ar := len(fs[0].Args)
		rd := &relData{arity: ar, nrows: len(fs), rows: make([]uint32, 0, ar*len(fs))}
		for _, g := range fs {
			for _, a := range g.Args {
				rd.rows = append(rd.rows, tID[a])
			}
		}
		// CSR index: count, prefix-sum, fill.
		nb := ar * r.nt
		counts := make([]uint32, nb+1)
		for row := 0; row < rd.nrows; row++ {
			for p := 0; p < ar; p++ {
				counts[p*r.nt+int(rd.rows[row*ar+p])+1]++
			}
		}
		for i := 0; i < nb; i++ {
			counts[i+1] += counts[i]
		}
		rd.idxOff = counts
		rd.idxRows = make([]uint32, ar*rd.nrows)
		fill := make([]uint32, nb)
		copy(fill, rd.idxOff[:nb])
		for row := 0; row < rd.nrows; row++ {
			for p := 0; p < ar; p++ {
				b := p*r.nt + int(rd.rows[row*ar+p])
				rd.idxRows[fill[b]] = uint32(row)
				fill[b]++
			}
		}
		rels[name] = rd
		return rd
	}

	for _, f := range from.Facts() {
		cf := cfact{rel: relOf(f.Rel), args: make([]uint32, len(f.Args)), firstPos: make([]uint8, len(f.Args))}
		for j, a := range f.Args {
			cf.args[j] = varID[a]
			cf.firstPos[j] = uint8(j)
			for k := 0; k < j; k++ {
				if f.Args[k] == a {
					cf.firstPos[j] = uint8(k)
					break
				}
			}
		}
		r.facts = append(r.facts, cf)
	}

	// Seed domains: pinned variables get a singleton, the rest the full
	// target domain (mask the last word's tail).
	r.init = make([]uint64, r.nv*r.words)
	full := make([]uint64, r.words)
	for i := range full {
		full[i] = ^uint64(0)
	}
	if tail := r.nt % 64; tail != 0 {
		full[r.words-1] = (uint64(1) << tail) - 1
	}
	if r.nt == 0 {
		full[0] = 0
	}
	for v := 0; v < r.nv; v++ {
		d := r.init[v*r.words : (v+1)*r.words]
		if b, ok := pinned[r.vars[v]]; ok {
			w := tID[b] // caller validated b ∈ dom(to)
			d[w/64] = uint64(1) << (w % 64)
		} else {
			copy(d, full)
		}
	}
	return r
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
	r   *Rep
	ctx context.Context
	rec *obs.Recorder

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

	stop *stopFlag // parallel early-stop; nil for sequential searches

	// parked is the arena scratch this searcher borrowed; release
	// refills and returns it.
	parked *scratch
}

// newSearcher prepares a searcher over r with domains copied from from
// (the seeded init domains, or a split prefix snapshot).
func (r *Rep) newSearcher(ctx context.Context, from []uint64, stop *stopFlag) *searcher {
	s := &searcher{r: r, ctx: ctx, rec: obs.FromContext(ctx), stop: stop}
	sc := r.arena.get()
	s.dom = resizeU64(sc.dom, len(from))
	copy(s.dom, from)
	s.saved = resizeU64(sc.saved, len(from))
	for i := range s.saved {
		s.saved[i] = 0
	}
	s.trail = sc.trail[:0]
	s.cands = sc.cands
	s.epoch = 1
	sc.dom, sc.saved, sc.trail, sc.cands = nil, nil, nil, nil
	s.parked = sc
	return s
}

// release returns the searcher's buffers to the arena.
func (s *searcher) release() {
	if s.parked == nil {
		return
	}
	s.parked.dom = s.dom
	s.parked.saved = s.saved
	s.parked.trail = s.trail
	s.parked.cands = s.cands
	s.r.arena.put(s.parked)
	s.parked = nil
}

func (s *searcher) domain(v int) []uint64 {
	w := s.r.words
	return s.dom[v*w : (v+1)*w]
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

// propagate enforces GAC fact-by-fact until a fixpoint, narrowing the
// shared domain array in place (every clear is trailed). ok=false means
// some domain emptied. The fixpoint loop checks the solver context so a
// large instance cannot delay cancellation by a whole pass.
func (s *searcher) propagate() bool {
	changed := true
	for changed {
		solve.Check(s.ctx)
		changed = false
		for fi := range s.r.facts {
			f := &s.r.facts[fi]
			if f.rel == nil {
				// Source relation with no target facts: unsatisfiable.
				return false
			}
			for j := range f.args {
				v := int(f.args[j])
				removed, alive := s.narrow(f, j, v)
				if removed > 0 {
					s.rec.Add(obs.CtrHomPrunings, int64(removed))
					changed = true
				}
				if !alive {
					return false
				}
			}
		}
	}
	return true
}

// narrow removes from dom(v) every candidate unsupported at position j
// of fact f. Returns the number of removed candidates and whether the
// domain stayed non-empty.
func (s *searcher) narrow(f *cfact, j, v int) (removed int, alive bool) {
	base := v * s.r.words
	any := false
	for i := 0; i < s.r.words; i++ {
		w := s.dom[base+i]
		kept := w
		//cqlint:ignore ctxloop -- clears one bit per iteration; at most 64 per word
		for bw := w; bw != 0; bw &= bw - 1 {
			b := bits.TrailingZeros64(bw)
			cand := uint32(i*64 + b)
			if !s.supported(f, j, cand) {
				kept &^= uint64(1) << b
				removed++
			}
		}
		if kept != w {
			s.setWord(base+i, kept)
		}
		if kept != 0 {
			any = true
		}
	}
	return removed, any
}

// supported reports whether some target row of f's relation has cand at
// position j, every other position's value inside the current domain of
// its variable, and equal values wherever f repeats a variable.
func (s *searcher) supported(f *cfact, j int, cand uint32) bool {
	rd := f.rel
	ar := rd.arity
	b := j*s.r.nt + int(cand)
	for _, row := range rd.idxRows[rd.idxOff[b]:rd.idxOff[b+1]] {
		off := int(row) * ar
		match := true
		for k := 0; k < ar; k++ {
			w := rd.rows[off+k]
			if fp := int(f.firstPos[k]); fp != k {
				if rd.rows[off+fp] != w {
					match = false
					break
				}
				continue
			}
			if !s.has(int(f.args[k]), w) {
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
// sequential search
// ---------------------------------------------------------------------

// find runs GAC-based backtracking from the current domains and returns
// one solution or nil. depth indexes the candidate scratch.
func (s *searcher) find(depth int) []uint32 {
	solve.Check(s.ctx)
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
		if s.propagate() {
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
	solve.Check(s.ctx)
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
		if s.propagate() {
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
	if !s.propagate() {
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
	if !s.propagate() {
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
	return s.propagate()
}

// NumVars returns the number of interned source variables.
func (r *Rep) NumVars() int { return r.nv }

// NumTargetValues returns the number of interned target values.
func (r *Rep) NumTargetValues() int { return r.nt }

// resizeU64 returns buf resized to n words, reallocating only when the
// capacity is short.
func resizeU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}
