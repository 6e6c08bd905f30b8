package compact

import (
	"context"
	"math/bits"

	"extremalcq/internal/obs"
)

// This file is the Yannakakis-style evaluator for α-acyclic sources
// (Yannakakis 1981; Durand & Grandjean 2007), on the ids and CSR rows
// the backtracker reads. A source fact's candidates are an alive bitset
// over its target relation's rows. A bottom-up semi-join pass in
// ear-removal order reduces each parent against its children, and a
// top-down pass each child against its reduced parent; then every alive
// row takes part in a homomorphism, so the descent, nested loops over
// the facts in preorder, never backtracks past a fact. A semi-join or a
// descent step looks a row up in the other fact's smallest bucket at a
// shared variable and compares the rest: no tuple, string or map is
// built per search.

// joiner is the mutable state of one join-tree search over a Rep. Its
// slices are windows into arena scratch.
type joiner struct {
	r    *Rep
	fo   *joinForest
	ctx  context.Context
	done <-chan struct{}
	rec  *obs.Recorder

	// alive[aliveOff[e]:aliveOff[e+1]] is fact e's survivor bitset over
	// its target relation's rows.
	alive    []uint64
	aliveOff []uint32
	// cur[e] is fact e's row in the descent; lo[i] and hi[i] bound the
	// candidate walk at preorder level i (rows of a root, bucket
	// entries otherwise); sol is the solution vector the descent binds.
	cur, lo, hi, sol []uint32

	ints   []uint32 // the arena buffer aliveOff to sol share
	parked *scratch
}

// FindJoin returns one solution of an α-acyclic source (see Acyclic)
// through the join tree: the first FindAllJoin yields.
func (r *Rep) FindJoin(ctx context.Context) ([]uint32, bool) {
	var sol []uint32
	found := false
	r.FindAllJoin(ctx, func(s []uint32) bool {
		sol, found = append([]uint32(nil), s...), true
		return false
	})
	return sol, found
}

// FindAllJoin enumerates every solution of an α-acyclic source (see
// Acyclic) through the join tree, yielding each until yield returns
// false. The yielded slice is reused: yield must copy what it keeps.
func (r *Rep) FindAllJoin(ctx context.Context, yield func([]uint32) bool) {
	fo := r.src.joinForest(ctx)
	if !fo.acyclic {
		panic("compact: join-tree search over a cyclic source")
	}
	j := &joiner{r: r, fo: fo, ctx: ctx, rec: obs.FromContext(ctx), parked: r.arena.get()}
	if ctx != nil {
		j.done = ctx.Done()
	}
	defer func() { // return the buffers to the arena
		j.parked.alive, j.parked.joinInts = j.alive, j.ints
		r.arena.put(j.parked)
	}()
	n := len(r.facts)
	j.ints = resize(j.parked.joinInts, 4*n+1+r.nv)
	j.aliveOff, j.cur, j.lo = j.ints[:n+1], j.ints[n+1:2*n+1], j.ints[2*n+1:3*n+1]
	j.hi, j.sol = j.ints[3*n+1:4*n+1], j.ints[4*n+1:]
	words := 0
	for e, f := range r.facts {
		j.aliveOff[e] = uint32(words)
		if f.rel != nil {
			words += (f.rel.nrows + 63) / 64
		}
	}
	j.aliveOff[n] = uint32(words)
	j.alive = resize(j.parked.alive, words)
	clear(j.alive)

	j.rec.Add(obs.CtrJoinTreeNodes, int64(n))
	if j.seed() && j.reduce() {
		j.descend(yield)
	}
}

// aliveOf returns fact e's survivor bitset.
func (j *joiner) aliveOf(e uint32) []uint64 {
	return j.alive[j.aliveOff[e]:j.aliveOff[e+1]]
}

// seed marks, for every fact, the rows of its target relation that can
// be its image under the seeded domains: repeated variables get equal
// values, and each distinct variable's value lies in its seeded domain.
// ok=false means some fact has no such row, so no homomorphism exists.
func (j *joiner) seed() bool {
	r := j.r
	for e, f := range r.facts {
		poll(j.ctx, j.done)
		if f.rel == nil {
			return false
		}
		alive, seeded := j.aliveOf(uint32(e)), false
	rows:
		for row := 0; row < f.rel.nrows; row++ {
			vals := f.rel.row(row)
			for k, w := range vals {
				if vals[f.firstPos[k]] != w || r.init[int(f.args[k])*r.words+int(w/64)]&(uint64(1)<<(w%64)) == 0 {
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
	rk, rb := r.facts[keep].rel, r.facts[by].rel
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
// assignment; it returns when yield returns false or the loops end.
func (j *joiner) descend(yield func([]uint32) bool) {
	r, pre := j.r, j.fo.pre
	if len(pre) == 0 {
		yield(j.sol) // the empty source maps once
		return
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
		f := &r.facts[e]
		j.cur[e] = row
		vals := f.rel.row(int(row))
		for _, k := range j.fo.fresh[j.fo.freshOff[e]:j.fo.freshOff[e+1]] {
			j.sol[f.args[k]] = vals[k]
		}
		if i+1 < len(pre) {
			i++
			j.open(i)
		} else if !yield(j.sol) {
			return
		}
	}
}

// link returns, for the fact at preorder level i, its parent's current
// row and the positions of their shared variables in the parent and in
// the fact; a root has no parent row.
func (j *joiner) link(i int) (e uint32, pvals, kpos, bpos []uint32) {
	fo := j.fo
	e = fo.pre[i]
	if p := fo.parent[e]; p >= 0 {
		sh, end := fo.sharedOff[e], fo.sharedOff[e+1]
		pvals, kpos, bpos = j.r.facts[p].rel.row(int(j.cur[p])), fo.ppos[sh:end], fo.cpos[sh:end]
	}
	return e, pvals, kpos, bpos
}

// open starts the walk at preorder level i: a root walks its rows, any
// other fact the entries of its relation's smallest bucket at a variable
// it shares with its parent.
func (j *joiner) open(i int) {
	e, pvals, kpos, bpos := j.link(i)
	if rel := j.r.facts[e].rel; pvals == nil {
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
		return j.r.match(pvals, j.r.facts[e].rel, j.aliveOf(e), kpos, bpos, &j.lo[i], j.hi[i])
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
