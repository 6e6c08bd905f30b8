package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"
)

// The generator owns the few example families it needs instead of
// importing internal/genex, so a change to the program cannot change the
// workload. Every input derives from the seed through math/rand.

// fact is one atom R(a,b) of an example or of a query body.
type fact struct {
	rel  string
	args []string
}

func (f fact) String() string { return f.rel + "(" + strings.Join(f.args, ",") + ")" }

// example is a pointed instance: a fact set plus a distinguished tuple.
type example struct {
	facts []fact
	tuple []string
}

// text renders the example in the "R(a,b). P(c) @ a" format cqfitd parses.
func (e example) text() string {
	s := joinFacts(e.facts, ". ")
	if len(e.tuple) > 0 {
		s += " @ " + strings.Join(e.tuple, ",")
	}
	return s
}

// query renders the example as its canonical CQ, "q(x) :- R(x,y), P(y)".
func (e example) query() string {
	return "q(" + strings.Join(e.tuple, ",") + ") :- " + joinFacts(e.facts, ", ")
}

func joinFacts(fs []fact, sep string) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, sep)
}

// inDomain reports whether v occurs in some fact of e.
func (e example) inDomain(v string) bool {
	for _, f := range e.facts {
		if slices.Contains(f.args, v) {
			return true
		}
	}
	return false
}

// relation is one schema entry, R/2.
type relation struct {
	name  string
	arity int
}

func schemaText(rels []relation) string {
	parts := make([]string, len(rels))
	for i, r := range rels {
		parts[i] = fmt.Sprintf("%s/%d", r.name, r.arity)
	}
	return strings.Join(parts, ",")
}

var (
	relsRP    = []relation{{"R", 2}, {"P", 1}}
	relsRPQ   = []relation{{"R", 2}, {"P", 1}, {"Q", 1}}
	relsR     = []relation{{"R", 2}}
	relsParty = []relation{{"T", 4}, {"P", 2}, {"A", 2}}
)

// randomExample draws facts uniformly over rels and a domain of dom
// values named prefix0..prefix(dom-1); the distinguished tuple of arity
// k is drawn from the active domain, so the example is a data example.
// Duplicate facts are dropped.
func randomExample(rng *rand.Rand, rels []relation, prefix string, dom, facts, k int) example {
	var e example
	seen := map[string]bool{}
	for i := 0; i < facts; i++ {
		r := rels[rng.Intn(len(rels))]
		f := fact{rel: r.name, args: make([]string, r.arity)}
		for j := range f.args {
			f.args[j] = fmt.Sprintf("%s%d", prefix, rng.Intn(dom))
		}
		if key := f.String(); !seen[key] {
			seen[key] = true
			e.facts = append(e.facts, f)
		}
	}
	var adom []string
	for _, f := range e.facts {
		for _, a := range f.args {
			if !slices.Contains(adom, a) {
				adom = append(adom, a)
			}
		}
	}
	for i := 0; i < k; i++ {
		e.tuple = append(e.tuple, adom[rng.Intn(len(adom))])
	}
	return e
}

// parityCycle is the cyclic parity chain with n T-links over {T/4,P/2,A/2}:
// P(x1,y1), T(xi,yi,x(i+1),y(i+1)) for i = 1..n, A(x(n+1),y(n+1)) and
// the closing link T(x(n+1),y(n+1),x1,y1). It has no homomorphism into
// parityTarget, and arc consistency prunes nothing, so refuting it is a
// ~2^n backtracking search.
func parityCycle(n int, p string) example {
	x := func(i int) string { return fmt.Sprintf("%sx%d", p, i) }
	y := func(i int) string { return fmt.Sprintf("%sy%d", p, i) }
	e := example{facts: []fact{{"P", []string{x(1), y(1)}}}}
	for i := 1; i <= n; i++ {
		e.facts = append(e.facts, fact{"T", []string{x(i), y(i), x(i + 1), y(i + 1)}})
	}
	e.facts = append(e.facts,
		fact{"A", []string{x(n + 1), y(n + 1)}},
		fact{"T", []string{x(n + 1), y(n + 1), x(1), y(1)}})
	return e
}

// parityTarget holds the parity-preserving T quadruples (a⊕b = c⊕d),
// the odd pairs in P and the even pairs in A, over two values.
func parityTarget(p string) example {
	bit := func(b int) string { return fmt.Sprintf("%s%d", p, b) }
	var e example
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			if a^b == 1 {
				e.facts = append(e.facts, fact{"P", []string{bit(a), bit(b)}})
			} else {
				e.facts = append(e.facts, fact{"A", []string{bit(a), bit(b)}})
			}
			for c := 0; c < 2; c++ {
				for d := 0; d < 2; d++ {
					if a^b == c^d {
						e.facts = append(e.facts, fact{"T", []string{bit(a), bit(b), bit(c), bit(d)}})
					}
				}
			}
		}
	}
	return e
}

// clique is K_n as a symmetric irreflexive R.
func clique(n int, p string) example {
	var e example
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				e.facts = append(e.facts, fact{"R", []string{fmt.Sprintf("%s%d", p, i), fmt.Sprintf("%s%d", p, j)}})
			}
		}
	}
	return e
}

// cycle is the directed n-cycle.
func cycle(n int, p string) example {
	var e example
	for i := 0; i < n; i++ {
		e.facts = append(e.facts, fact{"R", []string{fmt.Sprintf("%s%d", p, i), fmt.Sprintf("%s%d", p, (i+1)%n)}})
	}
	return e
}

// splitCore is a pair of positives whose product cqfitd cores slowly.
// The product splits into a copy of the first positive's R (through the
// loop R(b1,b1)), which holds a directed triangle, and a 16-element
// bipartite component, into which no triangle maps but which arc
// consistency does not rule out. The searches do not split their source
// into components, so each retraction search that tries to drop a
// triangle element walks assignments of the bipartite component before
// it fails: about 2,600 search nodes a job. The pair is the smallest
// form of a random construct job that ran for minutes: that one also
// had five isolated P elements, and each such element multiplied the
// search by three to eight.
func splitCore(p string) []example {
	mk := func(v string, edges [][2]int, ps ...int) example {
		name := func(i int) string { return fmt.Sprintf("%s%s%d", p, v, i) }
		var e example
		for _, ab := range edges {
			e.facts = append(e.facts, fact{"R", []string{name(ab[0]), name(ab[1])}})
		}
		for _, i := range ps {
			e.facts = append(e.facts, fact{"P", []string{name(i)}})
		}
		return e
	}
	return []example{
		mk("a", [][2]int{{0, 2}, {0, 4}, {1, 0}, {2, 1}, {4, 2}}, 0, 2, 4),
		mk("b", [][2]int{{0, 2}, {2, 0}, {0, 3}, {3, 0}, {5, 0}, {1, 1}}, 5),
	}
}

// verdict is what the checker knows in advance about a job's boolean
// outcome.
type verdict int

const (
	anyVerdict  verdict = iota // only the returned queries are checked
	wantTrue                   // a fitting exists (prime cycles)
	wantFalse                  // the query does not fit (parity, cliques)
	wantProduct                // exists: must match the product-of-positives test
)

// jobSpec is the cqfitd wire form of a job. The benchmark keeps its own
// copy so the bodies it sends do not follow the program's types.
type jobSpec struct {
	Schema   string   `json:"schema"`
	Arity    int      `json:"arity"`
	Kind     string   `json:"kind"`
	Task     string   `json:"task"`
	Pos      []string `json:"pos,omitempty"`
	Neg      []string `json:"neg,omitempty"`
	Query    string   `json:"query,omitempty"`
	MaxAtoms int      `json:"max_atoms,omitempty"`
	MaxVars  int      `json:"max_vars,omitempty"`
}

// genJob is one job together with what the checker needs.
type genJob struct {
	rels     []relation
	arity    int
	kind     string
	task     string
	pos, neg []example
	query    string
	maxAtoms int
	maxVars  int
	want     verdict
}

func (j genJob) spec() jobSpec {
	s := jobSpec{Schema: schemaText(j.rels), Arity: j.arity, Kind: j.kind, Task: j.task,
		Query: j.query, MaxAtoms: j.maxAtoms, MaxVars: j.maxVars}
	for _, e := range j.pos {
		s.Pos = append(s.Pos, e.text())
	}
	for _, e := range j.neg {
		s.Neg = append(s.Neg, e.text())
	}
	return s
}

// Endpoints the workloads drive.
const (
	pathJobs   = "/v1/jobs"
	pathStream = "/v1/jobs/stream"
	pathBatch  = "/v1/batch"
)

// request is one pre-encoded HTTP request: its endpoint, its body as
// byte slices sent back to back, and the jobs it carries (one, or
// several for a batch). Requests share parts: a re-asked serve-2c job is
// its pool job's body with a short tail of new search bounds.
type request struct {
	path  string
	parts [][]byte
	jobs  []int
}

// payload returns the request body as sent.
func (r *request) payload() []byte {
	return bytes.Join(r.parts, nil)
}

func (r *request) size() int {
	n := 0
	for _, p := range r.parts {
		n += len(p)
	}
	return n
}

// workload is everything one run sends, generated before any timing.
type workload struct {
	name  string
	conns int
	jobs  []genJob
	// warm are the untimed requests counted in setup_s; timed holds one
	// closed-loop sequence per connection.
	warm  []*request
	timed [][]*request
	// prefill, when set, is sent to an untimed daemon that fills the
	// store every measured daemon starts from.
	prefill []*request
	// encode is the time spent JSON-encoding the request bodies.
	encode time.Duration
	nbody  int
	// traceKeepEvery thins the responses a traced pass keeps: explain
	// reports make every body distinct and several KiB long.
	traceKeepEvery int
}

type builder struct {
	w   *workload
	rng *rand.Rand
}

// fixed runs f with a generator seeded the same for every run. Warm-ups
// use it, so setup_s times the same set-up work whatever the seed.
func (b *builder) fixed(f func()) {
	seeded := b.rng
	b.rng = rand.New(rand.NewSource(0))
	f()
	b.rng = seeded
}

func (b *builder) add(j genJob) int {
	b.w.jobs = append(b.w.jobs, j)
	return len(b.w.jobs) - 1
}

// one encodes a single-job request.
func (b *builder) one(path string, id int) *request {
	return &request{path: path, parts: [][]byte{b.encode(b.w.jobs[id].spec())}, jobs: []int{id}}
}

func (b *builder) encode(v any) []byte {
	start := time.Now()
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the spec types always marshal
	}
	b.w.encode += time.Since(start)
	b.w.nbody++
	return body
}

// generate builds the named workload from seed. Sizes grow with the run
// length, with room for a faster host than the one the benchmark was
// tuned on; a connection that still runs out starts its sequence again,
// and the run's record line says so.
func generate(name string, seed int64, seconds int) (*workload, error) {
	b := &builder{w: &workload{name: name, traceKeepEvery: 1}, rng: rand.New(rand.NewSource(seed))}
	switch name {
	case "solve-1c":
		b.solve(seconds)
	case "stream-1c":
		b.stream(seconds)
	case "serve-2c":
		b.serve(seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (want solve-1c, stream-1c or serve-2c)", name)
	}
	return b.w, nil
}

// solve-1c: one connection of distinct cold cq jobs whose cost is nearly
// all solver work. Rounds keep the mix's composition fixed, so the
// seed changes the instances but not the share of each family. Values
// are renamed per job, so no job hits another's memo entries. The
// parity refutations, each about twice as slow as the one before, run
// n = 16..18 in every round, 19 in every second and 20 in every fourth.
// The rounds without n = 19 carry a splitCore construct instead, so the
// thrashing retraction search is measured at a bounded cost. The
// slowest tenth of the jobs then have a fixed cost, so the tail
// percentiles do not depend on which random instances a seed draws, and
// p90 and p99 fall amid the n = 18 and n = 20 refutations rather than
// between two sizes.
func (b *builder) solve(seconds int) {
	b.w.conns = 1
	n, rounds := 0, 0
	round := func() []*request {
		var rs []*request
		add := func(j genJob) {
			rs = append(rs, b.one(pathJobs, b.add(j)))
		}
		for _, task := range []string{"construct", "unique", "exists", "construct", "unique", "exists"} {
			add(b.randomCQ(n, task))
			n++
		}
		sizes := []int{16, 17, 18}
		if rounds++; rounds%2 == 0 {
			sizes = append(sizes, 19)
		}
		if rounds%4 == 0 {
			sizes = append(sizes, 20)
		}
		for _, size := range sizes {
			p := fmt.Sprintf("j%d", n)
			n++
			add(genJob{rels: relsParty, kind: "cq", task: "verify", want: wantFalse,
				query: "q() :- " + joinFacts(parityCycle(size, p).facts, ", "),
				pos:   []example{parityTarget("b" + p)}})
		}
		p := fmt.Sprintf("k%d", n)
		n++
		add(genJob{rels: relsR, kind: "cq", task: "verify", want: wantFalse,
			query: "q() :- " + joinFacts(clique(7, p+"v").facts, ", "),
			pos:   []example{clique(6, p+"w")}})
		for i := 0; i < 2; i++ {
			p := fmt.Sprintf("c%d", n)
			n++
			add(genJob{rels: relsR, kind: "cq", task: "exists", want: wantTrue,
				pos: []example{cycle(3, p+"a"), cycle(5, p+"b"), cycle(7, p+"c")},
				neg: []example{cycle(2, p+"d")}})
		}
		if rounds%2 == 1 {
			p := fmt.Sprintf("t%d", n)
			n++
			// The negative has no R fact, so every fitting avoids it.
			add(genJob{rels: relsRP, kind: "cq", task: "construct", want: wantTrue,
				pos: splitCore(p), neg: []example{{facts: []fact{{"P", []string{p + "n"}}}}}})
		}
		b.rng.Shuffle(len(rs), func(i, k int) { rs[i], rs[k] = rs[k], rs[i] })
		return rs
	}
	b.fixed(func() {
		for i := 0; i < 8; i++ {
			b.w.warm = append(b.w.warm, round()...)
		}
	})
	var seq []*request
	for len(seq) < 500*seconds+1000 {
		seq = append(seq, round()...)
	}
	b.w.timed = [][]*request{seq}
}

// randomCQ is a cq job over random positives. An exists job takes three
// of six values and ten facts, whose product has up to 216 elements, and
// a path-shaped negative, into which the hom check from that product
// stays easy. Construct and unique core the product of two positives of
// four values and six facts (up to 16 elements); unique also checks the
// core is weakly most general. Positives of six values and ten facts
// make about one construct job in 10^4 run for minutes (see splitCore),
// which no seed may draw; of 150,000 construct or unique jobs at this
// size none took 100 ms.
func (b *builder) randomCQ(n int, task string) genJob {
	p := fmt.Sprintf("r%d", n)
	k := n % 2
	j := genJob{rels: relsRP, arity: k, kind: "cq", task: task}
	npos, dom, facts := 2, 4, 6
	if task == "exists" {
		npos, dom, facts, j.want = 3, 6, 10, wantProduct
	}
	for i := 0; i < npos; i++ {
		j.pos = append(j.pos, randomExample(b.rng, relsRP, fmt.Sprintf("%s%c", p, 'a'+i), dom, facts, k))
	}
	if task == "exists" {
		neg := pathQuery(b.rng, p+"n")
		neg.tuple = neg.tuple[:k]
		j.neg = []example{neg}
	} else {
		j.neg = []example{randomExample(b.rng, relsRP, p+"n", 3, 4, k)}
	}
	return j
}

// stream-1c: one connection of streamed enumerations, 3/4 weakly most
// general and 1/4 basis, over small collections with tight bounds.
func (b *builder) stream(seconds int) {
	b.w.conns = 1
	mk := func(n int) *request {
		p := fmt.Sprintf("s%d", n)
		task := "weakly-most-general"
		if n%4 == 3 {
			task = "basis"
		}
		j := genJob{rels: relsRPQ, arity: 1, kind: "cq", task: task, maxAtoms: 3, maxVars: 4}
		for i := 0; i < b.rng.Intn(2); i++ {
			j.pos = append(j.pos, randomExample(b.rng, relsRPQ, p+"a", 3, 4, 1))
		}
		for i := 0; i < 1+b.rng.Intn(2); i++ {
			j.neg = append(j.neg, randomExample(b.rng, relsRPQ, fmt.Sprintf("%sn%d", p, i), 2, 2, 1))
		}
		return b.one(pathStream, b.add(j))
	}
	n := 0
	b.fixed(func() {
		for ; n < 40; n++ {
			b.w.warm = append(b.w.warm, mk(n))
		}
	})
	var seq []*request
	for len(seq) < 160*seconds+600 {
		seq = append(seq, mk(n))
		n++
	}
	b.w.timed = [][]*request{seq}
}

// serve-2c: two connections of cheap cq, ucq and tree jobs over small
// example collections, each asked several kind × task questions. An
// untimed daemon prefills the store with a seeded pool. Of every 16
// requests, ten are Zipf draws from the pool (store hits), four
// re-ask a pool question under search bounds no earlier request used (a
// store miss and a store write, solved from memo entries faulted in
// from the spilled store when the memo lacks them), one is a batch that
// re-asks three pool questions and repeats one (single-flight dedup),
// and one asks a question of a collection never seen before. The
// shares are the same all through the phase, so a faster daemon does
// not see a warmer store.
func (b *builder) serve(seconds int) {
	b.w.conns = 2
	// 17 is prime to the 16-request pattern below, so the kept
	// responses cover every kind of request.
	b.w.traceKeepEvery = 17
	var pool []int
	for c := 0; c < 400; c++ {
		pool = append(pool, b.collection(fmt.Sprintf("v%d", c))...)
	}
	b.rng.Shuffle(len(pool), func(i, k int) { pool[i], pool[k] = pool[k], pool[i] })
	bodies := make([]*request, len(pool))
	for i, id := range pool {
		bodies[i] = b.one(pathJobs, id)
	}
	b.w.prefill = bodies
	rank := b.rng.Perm(len(bodies))
	zipf := rand.NewZipf(b.rng, 1.1, 4, uint64(len(bodies)-1))
	draw := func() int { return rank[zipf.Uint64()] }
	bound := 0
	// reasked returns a pool job's body with search bounds no other
	// request carries: the pool body is a JSON object, and the tail
	// replaces its closing brace.
	reasked := func(r *request) [][]byte {
		bound++
		body := r.parts[0]
		return [][]byte{body[:len(body)-1], fmt.Appendf(nil, `,"max_atoms":%d,"max_vars":8}`, 8+bound)}
	}
	reask := func() *request {
		r := bodies[draw()]
		return &request{path: pathJobs, parts: reasked(r), jobs: r.jobs}
	}
	// A batch re-asks three pool jobs and repeats one of them, so the
	// duplicate is a store miss that single-flight dedup coalesces.
	batch := func() *request {
		rs := []*request{bodies[draw()], bodies[draw()], bodies[draw()]}
		var job [3][][]byte
		for k, r := range rs {
			job[k] = reasked(r)
		}
		dup := b.rng.Intn(3)
		rs = append(rs, rs[dup])
		parts := [][]byte{[]byte(`{"jobs":[`)}
		for k, js := range [][][]byte{job[0], job[1], job[2], job[dup]} {
			if k > 0 {
				parts = append(parts, []byte(","))
			}
			parts = append(parts, js...)
		}
		r := &request{path: pathBatch, parts: append(parts, []byte("]}"))}
		for _, x := range rs {
			r.jobs = append(r.jobs, x.jobs[0])
		}
		return r
	}
	var fresh []int
	cold := func() *request {
		if len(fresh) == 0 {
			fresh = b.collection(fmt.Sprintf("w%d", bound))
			b.rng.Shuffle(len(fresh), func(i, k int) { fresh[i], fresh[k] = fresh[k], fresh[i] })
		}
		id := fresh[0]
		fresh = fresh[1:]
		return b.one(pathJobs, id)
	}
	next := func(i int) *request {
		switch i % 16 {
		case 1, 5, 9, 13:
			return reask()
		case 7:
			return batch()
		case 11:
			return cold()
		}
		return bodies[draw()]
	}
	for i := 0; i < 15000; i++ {
		b.w.warm = append(b.w.warm, next(i))
	}
	b.w.timed = make([][]*request, b.w.conns)
	for c := range b.w.timed {
		for i := 0; i < 12000*seconds+2000; i++ {
			b.w.timed[c] = append(b.w.timed[c], next(i))
		}
	}
}

// collection adds one small example collection and the ten questions
// serve-2c asks of it, returning their job ids.
func (b *builder) collection(p string) []int {
	var pos, neg []example
	for i := 0; i < 1+b.rng.Intn(2); i++ {
		pos = append(pos, randomExample(b.rng, relsRP, fmt.Sprintf("%sp%d", p, i), 4, 7, 1))
	}
	for i := 0; i < 1+b.rng.Intn(2); i++ {
		neg = append(neg, randomExample(b.rng, relsRP, fmt.Sprintf("%sn%d", p, i), 3, 4, 1))
	}
	q := randomExample(b.rng, relsRP, p+"q", 3, 2, 1)
	path := pathQuery(b.rng, p+"t")
	var ids []int
	for _, kt := range [][2]string{
		{"cq", "exists"}, {"cq", "construct"}, {"cq", "most-specific"}, {"cq", "unique"},
		{"ucq", "exists"}, {"ucq", "construct"},
		{"tree", "exists"}, {"tree", "most-specific"},
	} {
		j := genJob{rels: relsRP, arity: 1, kind: kt[0], task: kt[1], pos: pos, neg: neg}
		if kt == [2]string{"cq", "exists"} {
			j.want = wantProduct
		}
		ids = append(ids, b.add(j))
	}
	return append(ids,
		b.add(genJob{rels: relsRP, arity: 1, kind: "cq", task: "verify", pos: pos, neg: neg, query: q.query()}),
		b.add(genJob{rels: relsRP, arity: 1, kind: "tree", task: "verify", pos: pos, neg: neg, query: path.query()}))
}

// pathQuery is a unary tree CQ: a directed R-path of one to three edges
// from the answer variable, with an optional P on its end. Tree verify
// accepts only such tree-shaped queries.
func pathQuery(rng *rand.Rand, p string) example {
	n := 1 + rng.Intn(3)
	e := example{tuple: []string{p + "0"}}
	for i := 0; i < n; i++ {
		e.facts = append(e.facts, fact{"R", []string{fmt.Sprintf("%s%d", p, i), fmt.Sprintf("%s%d", p, i+1)}})
	}
	if rng.Intn(2) == 0 {
		e.facts = append(e.facts, fact{"P", []string{fmt.Sprintf("%s%d", p, n)}})
	}
	return e
}
