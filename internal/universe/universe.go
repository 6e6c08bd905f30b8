// Package universe compiles the bounded candidate space of the weakly
// most-general CQ search (internal/fitting) once per (schema, arity,
// bounds), and caches the compiled universe per engine.
//
// The search tries every bounded data example as a candidate. By
// Prop 3.11 with Thm 2.12 a fitting candidate is weakly most-general
// iff its core is c-acyclic and every member of that core's frontier
// maps into a negative example. Of that test only two checks depend on
// the examples: fit, and the frontier members into the negatives. The
// canonical CQ, its core, c-acyclicity and the frontier are properties
// of the candidate alone, so they are computed here once instead of
// once per job.
//
// Compiling walks genex.EnumerateDataExamplesCtx in its order, cores
// each candidate, drops cores that are not c-acyclic (they can never
// be weakly most-general), and keeps the first candidate of each
// isomorphism class of cores. Isomorphic cores are equivalent queries,
// and fit and the frontier test are invariant under equivalence, so a
// later member of a class is an answer exactly when the first one is.
// The search dedups its answers up to equivalence anyway, so walking
// the representatives yields the same answers, in the same order, as
// walking every candidate.
//
// A complete universe also carries the homomorphism preorder over its
// nodes: each entry's query followed by its frontier members (see
// order.go). Fit and the frontier test ask only whether a node maps
// into an example, and homomorphisms compose: if a node maps into an
// example, so does every node that maps to it, and if it does not,
// neither does any node it maps to. So a job asks its questions
// through Verdicts, which search only for what the job's earlier
// answers about the same example do not settle. The order is built
// after a walk that makes or finds the universe complete without one,
// in half of what is left of that job's time, so the build never
// fails the job; a build cut short keeps the nodes it inserted for the
// next walk to go on from, and one that would cost far more than the
// compile gives up, leaving the universe without an order.
package universe

import (
	"context"
	"slices"
	"sync"
	"time"

	"extremalcq/internal/cq"
	"extremalcq/internal/frontier"
	"extremalcq/internal/genex"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
	"extremalcq/internal/solve"
)

// MaxFacts caps the facts a cached universe retains, counting each
// entry's query and frontier members; retained memory is about 1.1 KB
// per fact once the lookup indexes are built, so a universe holds at
// most ~9 MB. Its order adds 2·n²/8 bytes over its n nodes, at most
// 4 MB (see maxOrderNodes): 0.5 MB for the 1,398 nodes of R/2, P/1,
// Q/1 at arity 2 with 3 atoms and 4 variables (7,524 facts), whose
// build takes about as long as its compile. A walk that passes the cap
// drops what it has compiled and marks its key as too big: the rest of
// that walk, and every later walk of the key, runs live and retains
// nothing. The default bounds over small schemas stay well below it:
// R/2, P/1, Q/1 at arity 1 with 3 atoms and 4 variables is 659
// candidates, 134 entries, 385 nodes and 1,515 facts.
const MaxFacts = 8192

// MaxUniverses caps the universes one cache holds, so a cache retains
// at most ~104 MB with their orders; past it an arbitrary universe is
// evicted.
const MaxUniverses = 8

// Entry is one candidate whose core is c-acyclic: that core, with its
// frontier. Entries of a cached universe are shared read-only by
// concurrent jobs: every lazily built index of their instances is
// built before the entry is shared, and callers must not mutate them.
type Entry struct {
	// Query is the canonical CQ of the core; it is itself a core, and
	// c-acyclic.
	Query *cq.CQ
	// Frontier is the frontier of Query's canonical example (Def 3.21).
	Frontier []instance.Pointed

	iso  string // Query's IsoFingerprint, on compiled entries
	node int    // 1 + Query's node in its universe's order, on compiled entries
}

// Node is the node of the entry's query in the order of its universe
// (see Verdicts), or -1 for an entry of no universe, such as one of a
// live walk, which is never decided through an order.
func (e *Entry) Node() int { return e.node - 1 }

// MemberNode is the node of the entry's frontier member i, or -1 as for
// Node.
func (e *Entry) MemberNode(i int) int {
	if e.node == 0 {
		return -1
	}
	return e.node + i
}

// key identifies a universe: the enumeration's schema, arity and bounds.
type key struct {
	schema            string
	arity             int
	maxAtoms, maxVars int
}

// universe is what the walks of one key have compiled: the entries of
// the first walked candidates of the enumeration, in order. A complete
// universe covers the whole enumeration, and carries the order of its
// nodes as far as its builds got, or unordered when a build gave up;
// tooBig marks a key whose walk passed the fact cap, and holds no
// entries.
type universe struct {
	entries   []*Entry
	walked    int // enumerated candidates the entries cover
	facts     int // facts retained by the entries
	nodes     int // the entries' queries and frontier members
	complete  bool
	tooBig    bool
	order     *order
	unordered bool
}

// built counts the nodes u's order settles: those its builds have
// inserted, or all of them once a build gave up.
func (u *universe) built() int {
	switch {
	case u.unordered:
		return u.nodes
	case u.order == nil:
		return 0
	}
	return u.order.n
}

// settled reports whether u's order is built or given up.
func (u *universe) settled() bool { return u.built() == u.nodes }

// Cache holds compiled universes. Like the solver memo it is
// context-carried, never process-global: each engine owns one and
// attaches it to its jobs' contexts (see WithCache). Safe for
// concurrent use. The zero value is not usable; create with NewCache.
type Cache struct {
	mu       sync.Mutex
	m        map[key]*universe
	maxFacts int
}

// NewCache returns an empty cache capped at MaxFacts facts per
// universe and MaxUniverses universes.
func NewCache() *Cache { return newCache(MaxFacts) }

func newCache(maxFacts int) *Cache {
	return &Cache{m: make(map[key]*universe), maxFacts: maxFacts}
}

func (c *Cache) get(k key) (*universe, bool) {
	c.mu.Lock()
	u, ok := c.m[k]
	c.mu.Unlock()
	return u, ok
}

// put installs u unless what k holds covers as much of the
// enumeration: concurrent walks of one key compile the same entries,
// and keeping the first leaves replaying jobs on one stable slice.
func (c *Cache) put(k key, u *universe) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.m[k]
	if ok && !u.beats(old) {
		return
	}
	if !ok && len(c.m) >= MaxUniverses {
		for old := range c.m {
			delete(c.m, old)
			break
		}
	}
	c.m[k] = u
}

// beats reports whether u covers more of its key than old: a too-big
// marker is final, at equal length a complete universe beats a
// prefix, and of two complete ones the one whose order is further
// built wins.
func (u *universe) beats(old *universe) bool {
	switch {
	case old.tooBig:
		return false
	case u.tooBig:
		return true
	}
	return u.walked > old.walked || u.complete && !old.complete || u.built() > old.built()
}

// buildOrder builds what is left of the order of the complete universe
// c holds for k, if its order is not settled. It runs after a walk,
// on the walk's job, for later jobs: the build gets half of what is
// left before ctx's deadline, and the job keeps the other half for
// what it does after its walk. A cut stops the build, not the job,
// and keeps the nodes it inserted for the next walk's build to go on
// from; a build that gives up (see ordered) leaves the universe
// unordered for good. Concurrent builds of one key each run, and the
// one furthest along is kept.
func (c *Cache) buildOrder(ctx context.Context, k key) {
	u, _ := c.get(k)
	if u == nil || !u.complete || u.settled() {
		return
	}
	if d, ok := ctx.Deadline(); ok {
		ctx = halfLeft{ctx, time.Now().Add(time.Until(d) / 2)}
	}
	c.put(k, ordered(ctx, u))
}

// halfLeft is a job's context whose deadline is moved to stop, half of
// what was left of it. Err reads the clock rather than waiting for a
// timer, which can fire a millisecond or more late, eating into the
// half the job keeps; the build polls Err before each search.
type halfLeft struct {
	context.Context
	stop time.Time
}

func (c halfLeft) Deadline() (time.Time, bool) { return c.stop, true }

func (c halfLeft) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if time.Now().After(c.stop) {
		return context.DeadlineExceeded
	}
	return nil
}

// ForEach calls yield with the candidates of the universe of k-ary
// data examples over sch with at most maxAtoms facts and maxVars values
// that pass fits, in enumeration order, until yield returns false.
// fits is the caller's test of a candidate's query that depends on the
// examples, given with the query's node (see Entry.Node); it must be
// invariant under equivalence, as fit is.
//
// Under a cache (see WithCache) each entry is the first candidate of
// its isomorphism class of c-acyclic cores. ForEach replays what
// earlier walks of the key compiled, then compiles the rest of the
// enumeration under ctx, yielding each new entry as soon as it is
// compiled. A walk keeps what it compiled also when yield,
// cancellation or a deadline cuts it short, so a later walk resumes
// where it stopped and only a whole walk marks the universe complete.
// A walk that ends on a complete universe whose order is not built
// then builds what is left of it (see Cache.buildOrder). A replay of a
// universe whose order is built binds known to it, so the callbacks'
// checks through known.Decide search only for what the job's earlier
// answers do not settle; known may be nil.
//
// Without a cache, for a key marked too big, and for the rest of a
// walk that passes the cap, ForEach walks live and retains nothing: it
// applies fits to each candidate first, with node -1, and cores only
// the candidates that pass, then yields every one whose core is
// c-acyclic, so a class can be yielded more than once.
func ForEach(ctx context.Context, sch *schema.Schema, k, maxAtoms, maxVars int, known *Verdicts, fits func(q *cq.CQ, node int) bool, yield func(*Entry) bool) {
	w := walk{c: cacheFrom(ctx), k: key{schema: sch.String(), arity: k, maxAtoms: maxAtoms, maxVars: maxVars}}
	if w.c != nil {
		u, _ := w.c.get(w.k)
		if u == nil {
			u = &universe{}
		}
		if !u.tooBig {
			if u.settled() {
				known.bind(ctx, u.order)
			}
			if replay(ctx, u.entries, fits, yield) && !u.complete {
				w.resume(u)
				w.run(ctx, sch, k, maxAtoms, maxVars, fits, yield)
			}
			w.c.buildOrder(ctx, w.k)
			return
		}
	}
	w.run(ctx, sch, k, maxAtoms, maxVars, fits, yield)
}

// replay applies fits to each of entries in turn and yields those that
// pass, until yield returns false; it reports whether yield let it
// replay them all.
func replay(ctx context.Context, entries []*Entry, fits func(*cq.CQ, int) bool, yield func(*Entry) bool) bool {
	for _, e := range entries {
		solve.Check(ctx)
		if fits(e.Query, e.Node()) && !yield(e) {
			return false
		}
	}
	return true
}

// walk is one pass over a key's enumeration. While keep holds it
// compiles into u, the prefix it resumed from extended by what it has
// compiled since, with the entries' isomorphism classes; otherwise it
// is live and holds nothing.
type walk struct {
	c       *Cache
	k       key
	keep    bool
	u       universe
	classes map[string][]*Entry // IsoFingerprint -> entries of u
}

// resume starts compiling after the cached prefix u. A saved prefix's
// slice has no spare capacity, so the walk's first append copies it
// and concurrent walks of u never write to the same array.
func (w *walk) resume(u *universe) {
	w.keep, w.u = true, *u
	w.classes = make(map[string][]*Entry, len(u.entries))
	for _, e := range u.entries {
		w.classes[e.iso] = append(w.classes[e.iso], e)
	}
}

// run walks the enumeration past the candidates the resumed prefix
// covers. A compiling walk saves its prefix however it ends, cut short
// or by a panic (cancellation is one); one that reaches the end of the
// enumeration saves it complete.
func (w *walk) run(ctx context.Context, sch *schema.Schema, k, maxAtoms, maxVars int, fits func(*cq.CQ, int) bool, yield func(*Entry) bool) {
	defer w.save()
	skip, n, stopped := w.u.walked, 0, false
	genex.EnumerateDataExamplesCtx(ctx, sch, k, maxAtoms, maxVars, func(ex instance.Pointed) bool {
		if n++; n <= skip {
			return true
		}
		if !w.step(ctx, ex, fits, yield) {
			stopped = true
			return false
		}
		return true
	})
	w.u.complete = !stopped
}

// save installs a compiling walk's prefix in the cache, clipped (see
// resume).
func (w *walk) save() {
	if w.keep {
		u := w.u
		u.entries = slices.Clip(u.entries)
		w.c.put(w.k, &u)
	}
}

// step walks one enumerated candidate and reports whether the walk
// goes on. A compiling walk compiles the candidate and yields a new
// entry that passes fits; a live walk checks fits first, as a search
// over raw candidates does.
func (w *walk) step(ctx context.Context, ex instance.Pointed, fits func(*cq.CQ, int) bool, yield func(*Entry) bool) bool {
	solve.Check(ctx)
	if !w.keep {
		if q, err := cq.FromExample(ex); err != nil || !fits(q, -1) {
			return true
		}
		e := entryFor(ctx, acyclicCore(ctx, ex))
		return e == nil || yield(e)
	}
	e := w.compile(ctx, ex)
	// The prefix changes only here, after every search the candidate
	// needed, so a cancellation panic leaves it whole for save.
	w.u.walked++
	if e != nil {
		e.node = 1 + w.u.nodes
		w.u.nodes += 1 + len(e.Frontier)
		w.u.entries = append(w.u.entries, e)
		w.classes[e.iso] = append(w.classes[e.iso], e)
		w.u.facts += e.Query.Example().Size()
		for _, m := range e.Frontier {
			w.u.facts += m.Size()
		}
		if w.u.facts > w.c.maxFacts {
			w.keep, w.u, w.classes = false, universe{}, nil
			w.c.put(w.k, &universe{tooBig: true})
		}
	}
	return e == nil || !fits(e.Query, e.Node()) || yield(e)
}

// compile returns the entry of one candidate, or nil when its core is
// not c-acyclic or is isomorphic to the query of a compiled entry. The
// entry's instances have every index built, ready to be shared.
func (w *walk) compile(ctx context.Context, ex instance.Pointed) *Entry {
	q := acyclicCore(ctx, ex)
	if q == nil {
		return nil
	}
	core := q.Example()
	iso := core.IsoFingerprint()
	for _, prev := range w.classes[iso] {
		if instance.Isomorphic(prev.Query.Example(), core) {
			return nil
		}
	}
	e := entryFor(ctx, q)
	if e == nil {
		return nil
	}
	e.iso = iso
	core.I.BuildIndexes()
	for _, m := range e.Frontier {
		m.I.BuildIndexes()
	}
	return e
}

// acyclicCore returns the canonical CQ of ex's core, or nil when that
// core is not c-acyclic. The core of a data example keeps its tuple in
// the active domain, so cq.FromExample cannot fail; it copies the core,
// which the query then owns outright.
func acyclicCore(ctx context.Context, ex instance.Pointed) *cq.CQ {
	q, err := cq.FromExample(hom.CoreCtx(ctx, ex))
	if err != nil || !instance.CAcyclic(q.Example()) {
		return nil
	}
	return q
}

// entryFor builds the entry of a c-acyclic core q, or returns nil for
// a nil q. Enumerated candidates have tuples of distinct values, so
// their cores have unique names and the frontier construction, which
// fails only on a core without unique names or not c-acyclic, cannot
// fail here.
func entryFor(ctx context.Context, q *cq.CQ) *Entry {
	if q == nil {
		return nil
	}
	members, err := frontier.ForCoreCtx(ctx, q.Example())
	if err != nil {
		return nil
	}
	return &Entry{Query: q, Frontier: members}
}

// cacheKey is the context key under which a *Cache travels (the same
// ctx-threading pattern as hom.WithCache).
type cacheKey struct{}

// WithCache returns a context carrying c; ForEach consults it. A nil c
// returns ctx unchanged.
func WithCache(ctx context.Context, c *Cache) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, cacheKey{}, c)
}

func cacheFrom(ctx context.Context) *Cache {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(cacheKey{}).(*Cache)
	return c
}
