package compact

import (
	"slices"
	"sync/atomic"

	"extremalcq/internal/instance"
)

// Form is one instance compiled into interned ids, once, for every
// search it takes part in: a search reads the source half of its
// source's form and the target half of its target's. The form is cached
// on the instance (see instance.Instance.Compiled) and immutable once
// published, except for the join forest and the cuts, which the first
// search that needs them computes and publishes (see Acyclic and
// Rep.Cut).
type Form struct {
	// vals is the sorted active domain: id -> value. As a source the
	// ids are variable ids, as a target they are target ids.
	vals []instance.Value

	// The source half. facts holds the facts in Facts() order, as id
	// args with their equality types (windows into two slabs), and
	// factRel each fact's relation index in the sorted schema, under
	// which a search finds the target's rows (see Rep.rel); every search
	// from the form shares both. varOff/varFacts is the var→fact CSR:
	// the facts variable v occurs in, each once and in increasing order,
	// are varFacts[varOff[v]:varOff[v+1]]. maxArity, the widest fact's,
	// sizes a revision's support scratch.
	facts    []cfact
	factRel  []uint32
	varOff   []uint32
	varFacts []uint32
	maxArity int

	// The target half: byRel holds, per relation index of the sorted
	// schema, the relation's rows in fact order with their (position,
	// value) buckets, or nil when the instance has no fact of it.
	byRel []*relData

	// forest is the GYO verdict and join forest, computed on first probe.
	forest atomic.Pointer[joinForest]
	// cuts lists the cuts of a cyclic source, one per set of pinned
	// variables it was searched under (see cutset.go).
	cuts atomic.Pointer[cutEntry]
}

// compile returns the instance's compiled form, building and caching it
// on the instance on first use. It only reads the instance, so
// concurrent first searches over a shared instance are safe: each may
// build a form, and all of them keep the first one published.
func compile(in *instance.Instance) *Form {
	if f, ok := in.Compiled().(*Form); ok {
		return f
	}
	return in.SetCompiled(newForm(in)).(*Form)
}

// newForm interns in. Values get their ids in sorted order and facts
// their indexes in Facts() order: search trees, witnesses and answer
// orders depend on both.
func newForm(in *instance.Instance) *Form {
	f := &Form{vals: in.Dom()}
	nv := len(f.vals)
	ids := make(map[instance.Value]uint32, nv)
	for i, v := range f.vals {
		ids[v] = uint32(i)
	}
	names := in.Schema().Names()
	facts := in.Facts()

	// The source half: args and equality types in two slabs, windowed
	// per fact, then the var→fact CSR over each fact's distinct
	// variables.
	nargs := 0
	for _, fact := range facts {
		nargs += len(fact.Args)
		f.maxArity = max(f.maxArity, len(fact.Args))
	}
	args, firstPos := make([]uint32, 0, nargs), make([]uint32, 0, nargs)
	f.facts, f.factRel = make([]cfact, len(facts)), make([]uint32, len(facts))
	f.varOff = make([]uint32, nv+1)
	for i, fact := range facts {
		start := len(args)
		for j, a := range fact.Args {
			fp := slices.Index(fact.Args, a)
			args, firstPos = append(args, ids[a]), append(firstPos, uint32(fp))
			if fp == j {
				f.varOff[ids[a]+1]++
			}
		}
		f.facts[i] = cfact{args: args[start:len(args):len(args)], firstPos: firstPos[start:len(args):len(args)]}
		ri, _ := slices.BinarySearch(names, fact.Rel)
		f.factRel[i] = uint32(ri)
	}
	csrStarts(f.varOff)
	f.varFacts = make([]uint32, f.varOff[nv])
	for i, cf := range f.facts {
		for j, v := range cf.args {
			if cf.firstPos[j] == uint32(j) {
				f.varFacts[f.varOff[v]] = uint32(i)
				f.varOff[v]++
			}
		}
	}
	csrEnds(f.varOff)

	// The target half: each relation's rows in fact order, then their
	// (position, value) buckets; flat index i of a relation's rows is
	// position i%arity of row i/arity.
	f.byRel = make([]*relData, len(names))
	for i, cf := range f.facts {
		rd := f.byRel[f.factRel[i]]
		if rd == nil {
			rd = &relData{arity: len(cf.args)}
			f.byRel[f.factRel[i]] = rd
		}
		rd.rows = append(rd.rows, cf.args...)
		rd.nrows++
	}
	for _, rd := range f.byRel {
		if rd == nil {
			continue
		}
		ar := rd.arity
		rd.idxOff, rd.idxRows = make([]uint32, ar*nv+1), make([]uint32, len(rd.rows))
		for i, w := range rd.rows {
			rd.idxOff[i%ar*nv+int(w)+1]++
		}
		csrStarts(rd.idxOff)
		for i, w := range rd.rows {
			b := i%ar*nv + int(w)
			rd.idxRows[rd.idxOff[b]] = uint32(i / ar)
			rd.idxOff[b]++
		}
		csrEnds(rd.idxOff)
		rd.differ = differPairs(rd)
	}
	return f
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
