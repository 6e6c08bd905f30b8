package compact

import (
	"context"
	"math/bits"

	"extremalcq/internal/obs"
)

// This file is the Yannakakis-style evaluator for α-acyclic sources
// (Yannakakis 1981; Durand & Grandjean 2007), on the ids and CSR rows
// the backtracker reads: the whole search for an α-acyclic source, and
// each leaf of a cutset search (cutset.go), which runs it over the
// source with the cut's variables removed and seeds it from the leaf's
// domains. A source fact's candidates are an alive bitset over its
// target relation's rows. A bottom-up semi-join pass in ear-removal
// order reduces each parent against its children, and a top-down pass
// each child against its reduced parent; then every alive row takes
// part in a homomorphism, so the descent, nested loops over the facts
// in preorder, never backtracks past a fact. A semi-join or a
// descent step looks a row up in the other fact's smallest bucket at a
// shared variable and compares the rest: no tuple, string or map is
// built per search.

// joiner is the mutable state of one join-tree pass over a Rep. Its
// slices are windows into arena scratch.
type joiner struct {
	r    *Rep
	fo   *joinForest
	ctx  context.Context
	done <-chan struct{}
	rec  *obs.Recorder
	// dom is the domain array the pass seeds from: the Rep's seeded
	// domains, or a cutset leaf's.
	dom []uint64

	// alive[aliveOff[e]:aliveOff[e+1]] is fact e's survivor bitset over
	// its target relation's rows.
	alive    []uint64
	aliveOff []uint32
	// cur[e] is fact e's row in the descent; lo[i] and hi[i] bound the
	// candidate walk at preorder level i (rows of a root, bucket
	// entries otherwise); sol is the solution vector the descent binds.
	cur, lo, hi, sol []uint32
}

// join runs the join tree of the cut's forest (α-acyclic, see Cut)
// from the searcher's domains, with its buffers in the searcher's
// scratch, yielding every solution until yield returns false; it
// returns false when yield stopped it. The yielded slice is reused:
// yield must copy what it keeps. Its time is the semijoin phase.
func (s *searcher) join(yield func([]uint32) bool) bool {
	sp := s.rec.StartSpan(obs.PhaseSemijoin)
	defer sp.End()
	r, sc := s.r, s.sc
	j := &joiner{r: r, fo: s.cut.forest, ctx: s.ctx, done: s.done, rec: s.rec, dom: s.dom}
	n := len(r.src.facts)
	sc.joinInts = resize(sc.joinInts, 4*n+1+r.nv)
	j.aliveOff, j.cur, j.lo = sc.joinInts[:n+1], sc.joinInts[n+1:2*n+1], sc.joinInts[2*n+1:3*n+1]
	j.hi, j.sol = sc.joinInts[3*n+1:4*n+1], sc.joinInts[4*n+1:]
	words := 0
	for e := range r.src.facts {
		j.aliveOff[e] = uint32(words)
		if rd := r.rel(e); rd != nil {
			words += (rd.nrows + 63) / 64
		}
	}
	j.aliveOff[n] = uint32(words)
	sc.alive = resize(sc.alive, words)
	j.alive = sc.alive
	clear(j.alive)

	j.rec.Add(obs.CtrJoinTreeNodes, int64(n))
	if j.seed() && j.reduce() {
		return j.descend(yield)
	}
	return true
}

// aliveOf returns fact e's survivor bitset.
func (j *joiner) aliveOf(e uint32) []uint64 {
	return j.alive[j.aliveOff[e]:j.aliveOff[e+1]]
}

// seed marks, for every fact, the rows of its target relation that can
// be its image under the domains: repeated variables get equal values,
// and each distinct variable's value lies in its domain. ok=false means
// some fact has no such row, so no homomorphism exists.
func (j *joiner) seed() bool {
	r, dom := j.r, j.dom
	for e := range r.src.facts {
		poll(j.ctx, j.done)
		f, rd := &r.src.facts[e], r.rel(e)
		if rd == nil {
			return false
		}
		alive, seeded := j.aliveOf(uint32(e)), false
	rows:
		for row := 0; row < rd.nrows; row++ {
			vals := rd.row(row)
			for k, w := range vals {
				if vals[f.firstPos[k]] != w || dom[int(f.args[k])*r.words+int(w/64)]&(uint64(1)<<(w%64)) == 0 {
					continue rows
				}
			}
			alive[row/64] |= uint64(1) << (row % 64)
			seeded = true
		}
		if !seeded {
			return false
		}
	}
	return true
}

// reduce runs the bottom-up, then the top-down semi-join pass. ok=false
// means some fact lost every row: no homomorphism exists.
func (j *joiner) reduce() bool {
	fo := j.fo
	for _, e := range fo.order {
		if fo.parent[e] >= 0 && !j.semijoin(e, true) {
			return false
		}
	}
	for i := len(fo.order) - 1; i >= 0; i-- {
		if e := fo.order[i]; fo.parent[e] >= 0 && !j.semijoin(e, false) {
			return false
		}
	}
	return true
}

// semijoin reduces across the link between fact e and its parent: up
// keeps the parent's rows that some alive row of e matches on their
// shared variables, and !up keeps e's rows that some alive row of the
// parent matches. Removals are counted; ok=false when the reduced fact
// loses every row.
func (j *joiner) semijoin(e uint32, up bool) bool {
	poll(j.ctx, j.done)
	r, fo := j.r, j.fo
	keep, by := e, uint32(fo.parent[e])
	kpos, bpos := fo.cpos[fo.sharedOff[e]:fo.sharedOff[e+1]], fo.ppos[fo.sharedOff[e]:fo.sharedOff[e+1]]
	if up {
		keep, by, kpos, bpos = by, keep, bpos, kpos
	}
	rk, rb := r.rel(int(keep)), r.rel(int(by))
	alive, byAlive := j.aliveOf(keep), j.aliveOf(by)
	removed, left := 0, false
	for i := range alive {
		kept := alive[i]
		//cqlint:ignore ctxloop -- clears one bit per iteration; at most 64 per word
		for bw := kept; bw != 0; bw &= bw - 1 {
			b := bits.TrailingZeros64(bw)
			vals := rk.row(i*64 + b)
			lo, hi := r.bucket(vals, rb, kpos, bpos)
			if _, ok := r.match(vals, rb, byAlive, kpos, bpos, &lo, hi); !ok {
				kept &^= uint64(1) << b
				removed++
			}
		}
		alive[i], left = kept, left || kept != 0
	}
	j.rec.Add(obs.CtrSemijoinReductions, int64(removed))
	return left
}

// bucket returns the bounds of rb's smallest bucket at the positions
// bpos for the values vals holds at the matching positions kpos.
func (r *Rep) bucket(vals []uint32, rb *relData, kpos, bpos []uint32) (lo, hi uint32) {
	lo, hi = 0, ^uint32(0)
	for k, p := range bpos {
		b := int(p)*r.nt + int(vals[kpos[k]])
		if rb.idxOff[b+1]-rb.idxOff[b] < hi-lo {
			lo, hi = rb.idxOff[b], rb.idxOff[b+1]
		}
	}
	return lo, hi
}

// match returns the first row among rb's bucket entries [*lo, hi) that
// is alive and holds at the positions bpos the values vals holds at
// kpos, and advances *lo past it.
func (r *Rep) match(vals []uint32, rb *relData, alive []uint64, kpos, bpos []uint32, lo *uint32, hi uint32) (uint32, bool) {
	//cqlint:ignore ctxloop -- walks one finite bucket; *lo advances every iteration
	for *lo < hi {
		row := rb.idxRows[*lo]
		*lo++
		if alive[row/64]&(uint64(1)<<(row%64)) == 0 {
			continue
		}
		rvals, agree := rb.row(int(row)), true
		for k, p := range bpos {
			agree = agree && rvals[p] == vals[kpos[k]]
		}
		if agree {
			return row, true
		}
	}
	return 0, false
}

// descend enumerates the reduced relations as nested loops over the
// facts in preorder, yielding the solution vector at each full
// assignment; it returns false when yield returns false, and true when
// the loops end.
func (j *joiner) descend(yield func([]uint32) bool) bool {
	r, pre := j.r, j.fo.pre
	if len(pre) == 0 {
		return yield(j.sol) // the empty source maps once
	}
	j.open(0)
	//cqlint:ignore ctxloop -- each step advances one level's finite walk or leaves the level; bound rows poll ctx
	for i := 0; i >= 0; {
		row, ok := j.next(i)
		if !ok {
			i--
			continue
		}
		poll(j.ctx, j.done)
		e := pre[i]
		f := &r.src.facts[e]
		j.cur[e] = row
		vals := r.rel(int(e)).row(int(row))
		for _, k := range j.fo.fresh[j.fo.freshOff[e]:j.fo.freshOff[e+1]] {
			j.sol[f.args[k]] = vals[k]
		}
		if i+1 < len(pre) {
			i++
			j.open(i)
		} else if !yield(j.sol) {
			return false
		}
	}
	return true
}

// link returns, for the fact at preorder level i, its parent's current
// row and the positions of their shared variables in the parent and in
// the fact; a root has no parent row.
func (j *joiner) link(i int) (e uint32, pvals, kpos, bpos []uint32) {
	fo := j.fo
	e = fo.pre[i]
	if p := fo.parent[e]; p >= 0 {
		sh, end := fo.sharedOff[e], fo.sharedOff[e+1]
		pvals, kpos, bpos = j.r.rel(int(p)).row(int(j.cur[p])), fo.ppos[sh:end], fo.cpos[sh:end]
	}
	return e, pvals, kpos, bpos
}

// open starts the walk at preorder level i: a root walks its rows, any
// other fact the entries of its relation's smallest bucket at a variable
// it shares with its parent.
func (j *joiner) open(i int) {
	e, pvals, kpos, bpos := j.link(i)
	if rel := j.r.rel(int(e)); pvals == nil {
		j.lo[i], j.hi[i] = 0, uint32(rel.nrows)
	} else {
		j.lo[i], j.hi[i] = j.r.bucket(pvals, rel, kpos, bpos)
	}
}

// next advances the walk at preorder level i to its next alive row that
// agrees with the parent's current row.
func (j *joiner) next(i int) (uint32, bool) {
	e, pvals, kpos, bpos := j.link(i)
	if pvals != nil {
		return j.r.match(pvals, j.r.rel(int(e)), j.aliveOf(e), kpos, bpos, &j.lo[i], j.hi[i])
	}
	alive := j.aliveOf(e)
	//cqlint:ignore ctxloop -- walks one relation's finite rows; lo advances every iteration
	for ; j.lo[i] < j.hi[i]; j.lo[i]++ {
		if row := j.lo[i]; alive[row/64]&(uint64(1)<<(row%64)) != 0 {
			j.lo[i]++
			return row, true
		}
	}
	return 0, false
}
