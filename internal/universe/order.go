package universe

import (
	"context"
	"slices"

	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/solve"
)

// maxOrderNodes caps the nodes of a universe whose order is built, so
// the order's 2·n²/8 bytes stay within 4 MB. Universes of queries with
// a few facts each stay well below it (1,398 nodes at 7,524 facts);
// one-fact queries with empty frontier members can pass it.
const maxOrderNodes = 4096

// searchesPerNode budgets the order's build: past that many searches
// per node it gives up. Composition leaves few pairs to search in a
// universe whose nodes are mostly comparable (23 per node on
// stream-1c's key, 49 on the 1,398 nodes above), but a universe of
// mostly incomparable nodes, such as one-atom queries over many unary
// relations, needs about 3n/4 per node, and its build would take many
// times as long as its compile.
const searchesPerNode = 128

// order is the homomorphism preorder over the first n nodes of a
// complete universe: each entry's query, followed by its frontier
// members, in entry order (see Entry.Node). Row i of up holds bit j
// when node i maps to node j, row i of down bit j when node j maps to
// node i. A build cut short leaves n short of the universe's nodes,
// and the next build goes on from there (see extend); once n covers
// them all the order is shared read-only, like the entries.
type order struct {
	n        int // nodes inserted; their rows are final
	searches int // searches the insertions of the n nodes ran
	words    int // words per row
	up, down []uint64
}

func (o *order) row(m []uint64, i int) []uint64 { return m[i*o.words : (i+1)*o.words] }

// ordered returns a copy of u with the order of its nodes built further
// under ctx: resumed from u's order, which it copies since other builds
// may resume from it too, or begun afresh. The copy gives up for good,
// marked unordered, past maxOrderNodes nodes or searchesPerNode
// searches per node. A cut is recovered, and the copy keeps the nodes
// inserted before it.
func ordered(ctx context.Context, u *universe) (v *universe) {
	v = new(universe)
	*v = *u
	var nodes []instance.Pointed
	for _, e := range u.entries {
		nodes = append(nodes, e.Query.Example())
		nodes = append(nodes, e.Frontier...)
	}
	if len(nodes) > maxOrderNodes {
		v.unordered = true
		return v
	}
	if u.order == nil {
		w := (len(nodes) + 63) / 64
		v.order = &order{words: w, up: make([]uint64, len(nodes)*w), down: make([]uint64, len(nodes)*w)}
	} else {
		o := *u.order
		o.up, o.down = slices.Clone(o.up), slices.Clone(o.down)
		v.order = &o
	}
	defer solve.Catch(new(error))
	if !v.order.extend(ctx, nodes) {
		v.order, v.unordered = nil, true
	}
	return v
}

// extend inserts nodes from o.n on, one node v at a time, into the
// order of the nodes before it. It asks v → a and a → v of each earlier
// node a unless composition with what v's rows already hold settles
// the pair:
//   - v → a: v maps to all a maps to, and what does not map to a does
//     not map to v;
//   - v ↛ a: v maps to nothing that maps to a;
//   - a → v: all that maps to a maps to v, and v maps to nothing a
//     does not map to;
//   - a ↛ v: nothing a maps to maps to v.
//
// Only the last step of an insertion writes the earlier nodes' rows,
// and it cannot be cut, so a cut inside v leaves o.n at v and o's
// first v rows final. The searches bypass the memo (hom.SearchCtx),
// count as the job's hom_searches, and stop with ctx. extend reports
// false once the insertions have run more than searchesPerNode
// searches per node; a cut insertion's searches do not count, so where
// builds were cut does not change where one gives up.
func (o *order) extend(ctx context.Context, nodes []instance.Pointed) bool {
	var run int // searches of the insertion under way
	search := func(from, to instance.Pointed) bool {
		// Most of these searches run on the join tree, which does not
		// poll ctx, and one insertion may run hundreds of them.
		solve.Check(ctx)
		run++
		return hom.SearchCtx(ctx, from, to)
	}
	upNo, downNo := make([]uint64, o.words), make([]uint64, o.words)
	for ; o.n < len(nodes); o.n++ {
		solve.Check(ctx)
		if o.searches > searchesPerNode*len(nodes) {
			return false
		}
		v, x := o.n, nodes[o.n]
		up, down := o.row(o.up, v), o.row(o.down, v)
		// A cut insertion of v may have left bits here.
		clear(up)
		clear(down)
		clear(upNo)
		clear(downNo)
		run = 0
		for a, y := range nodes[:v] {
			if !has(up, a) && !has(upNo, a) {
				if search(x, y) {
					or(up, o.row(o.up, a))
					orNot(downNo, o.row(o.down, a))
				} else {
					or(upNo, o.row(o.down, a))
				}
			}
			if !has(down, a) && !has(downNo, a) {
				if search(y, x) {
					or(down, o.row(o.down, a))
					orNot(upNo, o.row(o.up, a))
				} else {
					or(downNo, o.row(o.up, a))
				}
			}
		}
		o.searches += run
		set(up, v)
		set(down, v)
		for a := range v {
			if has(up, a) {
				set(o.row(o.down, a), v)
			}
			if has(down, a) {
				set(o.row(o.up, a), v)
			}
		}
	}
	return true
}

// Verdicts is what one job knows of its examples: for each, the nodes
// of the walked universe known to map into it and the nodes known not
// to. ForEach binds it to the universe's order when the walk replays a
// universe whose order is built; unbound, or nil, it knows nothing.
type Verdicts struct {
	examples int
	o        *order
	known    []uint64 // per example, its yes row then its no row
	rec      *obs.Recorder
}

// NewVerdicts returns empty verdicts about the given number of
// examples, indexed from 0.
func NewVerdicts(examples int) *Verdicts { return &Verdicts{examples: examples} }

// bind makes v decide through o; a nil v or o leaves it unbound.
func (v *Verdicts) bind(ctx context.Context, o *order) {
	if v == nil || o == nil {
		return
	}
	v.o, v.rec = o, obs.FromContext(ctx)
	v.known = make([]uint64, 2*v.examples*o.words)
}

// Decide reports whether from, the instance of node, maps into to, the
// example at index x. Unbound, or for a negative node (an instance of
// no universe, see Entry.Node), it runs the check (hom.ExistsCtx).
// Bound, it first looks for the verdict among what earlier answers
// about x settle, since homomorphisms compose: when a node maps into
// x, so does every node that maps to it; when it does not, neither
// does any node it maps to. A settled verdict counts as hom_inferred;
// a checked one records what it settles.
func (v *Verdicts) Decide(ctx context.Context, node, x int, from, to instance.Pointed) bool {
	if v == nil || v.o == nil || node < 0 {
		return hom.ExistsCtx(ctx, from, to)
	}
	w := v.o.words
	yes, no := v.known[2*x*w:(2*x+1)*w], v.known[(2*x+1)*w:(2*x+2)*w]
	if has(yes, node) || has(no, node) {
		v.rec.Add(obs.CtrHomInferred, 1)
		return has(yes, node)
	}
	if hom.ExistsCtx(ctx, from, to) {
		or(yes, v.o.row(v.o.down, node))
		return true
	}
	or(no, v.o.row(v.o.up, node))
	return false
}

func has(row []uint64, i int) bool { return row[i/64]&(1<<(i%64)) != 0 }

func set(row []uint64, i int) { row[i/64] |= 1 << (i % 64) }

func or(dst, src []uint64) {
	for i, s := range src {
		dst[i] |= s
	}
}

func orNot(dst, src []uint64) {
	for i, s := range src {
		dst[i] |= ^s
	}
}
