package universe_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"extremalcq/internal/cq"
	"extremalcq/internal/engine"
	"extremalcq/internal/fitting"
	"extremalcq/internal/genex"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/schema"
	"extremalcq/internal/universe"
)

// orderKey is one universe of the order oracle, with its node count.
type orderKey struct {
	name  string
	sch   *schema.Schema
	k     int
	opts  fitting.SearchOpts
	nodes int
}

// orderKeys are the universes the order is checked on: stream-1c's key
// and three smaller ones over other schemas, arities and bounds.
func orderKeys() []orderKey {
	b := func(a, v int) fitting.SearchOpts { return fitting.SearchOpts{MaxAtoms: a, MaxVars: v} }
	return []orderKey{
		{"R/2,P/1,Q/1 k=1 3/4", schRPQ, 1, b(3, 4), 385},
		{"R/2,P/1 k=1 3/4", schRP, 1, b(3, 4), 149},
		{"R/2 k=1 4/5", schR, 1, b(4, 5), 100},
		{"R/2,P/1 k=0 4/4", schRP, 0, b(4, 4), 47},
	}
}

// compiledOrder compiles the universe of ok into a fresh cache through
// a whole walk, which builds its order, and returns the cache with the
// universe's nodes.
func compiledOrder(t *testing.T, ok orderKey) (*universe.Cache, int) {
	t.Helper()
	c := universe.NewCache()
	collect(universe.WithCache(t.Context(), c), ok.sch, ok.k, ok.opts.MaxAtoms, ok.opts.MaxVars, nil)
	nodes, inserted := universe.Nodes(c, ok.sch, ok.k, ok.opts.MaxAtoms, ok.opts.MaxVars)
	if len(nodes) != ok.nodes || inserted != ok.nodes {
		t.Fatalf("%s: a whole walk left %d nodes, %d of them ordered; want %d, all ordered", ok.name, len(nodes), inserted, ok.nodes)
	}
	return c, len(nodes)
}

// TestOrderMatchesBruteForce checks the order a whole walk builds
// against the brute-force relation, one hom.Exists per pair of nodes,
// on both of its matrices, and pins the build's cost in searches on
// stream-1c's key.
func TestOrderMatchesBruteForce(t *testing.T) {
	for _, ok := range orderKeys() {
		c, n := compiledOrder(t, ok)
		nodes, _ := universe.Nodes(c, ok.sch, ok.k, ok.opts.MaxAtoms, ok.opts.MaxVars)
		up, down := universe.Relation(c, ok.sch, ok.k, ok.opts.MaxAtoms, ok.opts.MaxVars)
		wrong := 0
		for i := range n {
			for j := range n {
				want := hom.Exists(nodes[i], nodes[j])
				if up[i][j] != want || down[j][i] != want {
					if wrong++; wrong <= 5 {
						t.Errorf("%s: node %d → node %d is %v by search; the order's up says %v, its down %v", ok.name, i, j, want, up[i][j], down[j][i])
					}
				}
			}
		}
		if wrong > 0 {
			t.Errorf("%s: %d of %d pairs wrong", ok.name, wrong, n*n)
		}

		rec := obs.NewRecorder()
		start := time.Now()
		universe.Rebuild(obs.WithRecorder(t.Context(), rec), c, ok.sch, ok.k, ok.opts.MaxAtoms, ok.opts.MaxVars)
		searches := rec.Count(obs.CtrHomSearches)
		t.Logf("%s: %d nodes; the build ran %d searches of %d pairs in %v", ok.name, n, searches, n*n, time.Since(start))
		if ok.sch == schRPQ && searches > 12000 {
			t.Errorf("%s: the build ran %d searches, want at most 12,000", ok.name, searches)
		}
	}
}

// TestDecideMatchesSearch asks bound verdicts about every node of each
// universe, in a random order, for random collections, and checks each
// verdict, inferred or searched, against a direct search. It also
// checks that inference did settle a share of the questions, so the
// comparison covers it.
func TestDecideMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	collections, inferred, asked := 0, int64(0), 0
	for _, ok := range orderKeys() {
		c, n := compiledOrder(t, ok)
		nodes, _ := universe.Nodes(c, ok.sch, ok.k, ok.opts.MaxAtoms, ok.opts.MaxVars)
		for range 80 {
			e, fine := randomCollection(rng, ok.sch, ok.k)
			if !fine {
				continue
			}
			collections++
			examples := append(slices.Clip(e.Pos), e.Neg...)
			rec := obs.NewRecorder()
			ctx := obs.WithRecorder(context.Background(), rec)
			known := universe.Bound(ctx, c, ok.sch, ok.k, ok.opts.MaxAtoms, ok.opts.MaxVars, len(examples))
			// Interleave the examples' questions, as a walk does.
			var qs [][2]int
			for x := range examples {
				for i := range n {
					qs = append(qs, [2]int{i, x})
				}
			}
			rng.Shuffle(len(qs), func(a, b int) { qs[a], qs[b] = qs[b], qs[a] })
			for _, q := range qs {
				i, x := q[0], q[1]
				got := known.Decide(ctx, i, x, nodes[i], examples[x])
				if want := hom.Exists(nodes[i], examples[x]); got != want {
					t.Fatalf("%s: pos=%v neg=%v: Decide says node %d → example %d is %v; search says %v", ok.name, e.Pos, e.Neg, i, x, got, want)
				}
			}
			inferred += rec.Count(obs.CtrHomInferred)
			asked += len(qs)
		}
	}
	if collections < 300 || inferred < int64(asked/2) {
		t.Fatalf("oracle too weak: %d collections, %d of %d verdicts inferred", collections, inferred, asked)
	}
	t.Logf("%d collections, %d of %d verdicts inferred", collections, inferred, asked)
}

// streamShaped draws a collection shaped like perfbench's stream-1c
// requests over R/2, P/1, Q/1 at arity 1: no positive or one with 4
// facts over 3 values, and one or two negatives with 2 facts over 2
// values.
func streamShaped(rng *rand.Rand) fitting.Examples {
	var pos, neg []instance.Pointed
	for range rng.Intn(2) {
		pos = append(pos, genex.RandomPointed(rng, schRPQ, 3, 4, 1))
	}
	for range 1 + rng.Intn(2) {
		neg = append(neg, genex.RandomPointed(rng, schRPQ, 2, 2, 1))
	}
	return fitting.MustExamples(schRPQ, 1, pos, neg)
}

// TestUniverseOrderSettlesStreamJobs gates the saving in deterministic
// units: after a 40-job warm-up, which compiles stream-1c's universe
// and builds its order, 200 stream-1c-shaped jobs (weakly most-general
// and, one in four, basis) run at most 30 hom searches each on
// average. Checking every class and frontier member ran 231.9.
func TestUniverseOrderSettlesStreamJobs(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	rng := rand.New(rand.NewSource(41))
	var searches, inferred int64
	for n := range 240 {
		task := engine.TaskWeaklyMostGeneral
		if n%4 == 3 {
			task = engine.TaskBasis
		}
		j := engine.Job{Kind: engine.KindCQ, Task: task, Examples: streamShaped(rng), Opts: fitting.SearchOpts{MaxAtoms: 3, MaxVars: 4}, Trace: true}
		res := eng.DoStream(t.Context(), j, nil)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if n >= 40 {
			searches += res.Trace.Counters["hom_searches"]
			inferred += res.Trace.Counters["hom_inferred"]
		}
	}
	avg := float64(searches) / 200
	if avg > 30 {
		t.Errorf("stream-1c-shaped jobs ran %.1f hom searches each, want at most 30 (%.1f inferred)", avg, float64(inferred)/200)
	}
	t.Logf("%.1f hom searches and %.1f inferred verdicts per job", avg, float64(inferred)/200)
}

// cutCtx reads as canceled once cut reports true, so a test can stop a
// walk at a point of its choosing. Only Err is overridden: the solver
// polls Err (solve.Check), and nothing here waits on Done.
type cutCtx struct {
	context.Context
	cut func() bool
}

func (c cutCtx) Err() error {
	if c.cut() {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestOrderBuildCutShortResumes cancels the job that compiles
// stream-1c's key 4,000 searches into the order's build, which follows
// its walk. The cut must stop the build, not the job, whose answers
// are complete by then. The universe must keep the nodes the build
// inserted, and the next job's build must go on from them: that job
// must run fewer searches than a whole build by most of the cut
// build's. Every job must answer as the oracle does, byte for byte,
// and the eight after the resumed one must settle most of their
// checks through the order.
func TestOrderBuildCutShortResumes(t *testing.T) {
	sch, k, opts := schRPQ, 1, fitting.SearchOpts{MaxAtoms: 3, MaxVars: 4}
	c, memo := universe.NewCache(), engine.NewMemo(0)
	base := universe.WithCache(hom.WithCache(instance.WithProductCache(context.Background(), memo), memo), c)
	rng := rand.New(rand.NewSource(43))
	job := func(ctx context.Context) {
		e := streamShaped(rng)
		var got []*cq.CQ
		err := fitting.ForEachWeaklyMostGeneralCtx(ctx, e, opts, func(q *cq.CQ) bool {
			got = append(got, q)
			return true
		})
		want, wantErr := oracleAll(e, opts)
		if fmt.Sprint(render(got)) != fmt.Sprint(render(want)) || errText(err) != errText(wantErr) {
			t.Errorf("pos=%v neg=%v: %v (%v), oracle %v (%v)", e.Pos, e.Neg, render(got), err, render(want), wantErr)
		}
	}
	inserted := func() (int, int) {
		nodes, inserted := universe.Nodes(c, sch, k, opts.MaxAtoms, opts.MaxVars)
		return inserted, len(nodes)
	}

	rec := obs.NewRecorder()
	at := int64(-1)
	cut := func() bool {
		if at < 0 {
			if _, _, complete, _ := universe.Compiled(c, sch, k, opts.MaxAtoms, opts.MaxVars); complete {
				at = rec.Count(obs.CtrHomSearches)
			}
		}
		return at >= 0 && rec.Count(obs.CtrHomSearches) > at+4000
	}
	job(cutCtx{obs.WithRecorder(base, rec), cut})
	cutAt, n := inserted()
	if _, _, complete, _ := universe.Compiled(c, sch, k, opts.MaxAtoms, opts.MaxVars); !complete || n != 385 || cutAt == 0 || cutAt >= n {
		t.Fatalf("the job cut inside the build left the universe complete %v with %d of %d nodes ordered; want complete, some of 385", complete, cutAt, n)
	}
	rec = obs.NewRecorder()
	universe.Rebuild(obs.WithRecorder(t.Context(), rec), c, sch, k, opts.MaxAtoms, opts.MaxVars)
	whole := rec.Count(obs.CtrHomSearches)

	var searches, inferred int64
	for i := range 9 {
		rec := obs.NewRecorder()
		job(obs.WithRecorder(base, rec))
		if in, n := inserted(); in != n {
			t.Fatalf("job %d after the cut left %d of %d nodes ordered", i, in, n)
		}
		if i == 0 {
			// The nodes the cut build inserted ran all of its 4,000
			// searches but the last node's, 2·384 at most; the job's
			// own checks run a few hundred.
			if resumed := rec.Count(obs.CtrHomSearches); resumed > whole-2000 {
				t.Errorf("the job after the cut ran %d hom searches, a whole build %d; want its build to go on from the %d nodes inserted", resumed, whole, cutAt)
			}
			continue
		}
		searches += rec.Count(obs.CtrHomSearches)
		inferred += rec.Count(obs.CtrHomInferred)
	}
	// Deciding every check by search inferred nothing.
	if inferred < 4*searches {
		t.Errorf("jobs after the build ran %d hom searches and inferred %d verdicts; want at least four inferred per search", searches, inferred)
	}
	t.Logf("a whole build: %d searches; cut at %d of %d nodes; jobs after the build: %.1f hom searches and %.1f inferred verdicts each", whole, cutAt, n, float64(searches)/8, float64(inferred)/8)
}

// TestOrderBuildLeavesJobsTheirTime runs engine jobs on stream-1c's key,
// weakly most-general and basis in turn, under a timeout half as long
// as the key's whole order build, several times as long as a job's own
// walk. Jobs cut inside the compile fail, as they would without an
// order, and the first job that succeeds is the one whose walk
// completes it. A build runs after its job's walk and takes half of
// what is left of its time, leaving a basis job the rest for checking
// its candidates, so from that job on every job must succeed, each
// build going on from where the one before stopped, until a job finds
// the order built and settles checks through it. The first build gets
// at most a quarter of a whole build's time, so it must be cut short.
func TestOrderBuildLeavesJobsTheirTime(t *testing.T) {
	sch, k, opts := schRPQ, 1, fitting.SearchOpts{MaxAtoms: 3, MaxVars: 4}
	c := universe.NewCache()
	collect(universe.WithCache(t.Context(), c), sch, k, opts.MaxAtoms, opts.MaxVars, nil)
	build := time.Duration(1<<63 - 1)
	for range 3 {
		start := time.Now()
		universe.Rebuild(t.Context(), c, sch, k, opts.MaxAtoms, opts.MaxVars)
		build = min(build, time.Since(start))
	}
	timeout := build / 2

	eng := engine.New(engine.Options{})
	defer eng.Close()
	rng := rand.New(rand.NewSource(53))
	succeeded := 0
	for n := 1; n <= 200; n++ {
		task := engine.TaskWeaklyMostGeneral
		if n%2 == 0 {
			task = engine.TaskBasis
		}
		j := engine.Job{Kind: engine.KindCQ, Task: task, Examples: streamShaped(rng), Opts: opts, Trace: true, Timeout: timeout}
		res := eng.DoStream(t.Context(), j, nil)
		switch {
		case res.Err == nil:
			succeeded++
		case succeeded > 0:
			t.Fatalf("job %d under a %v timeout (a whole build %v) failed after %d succeeded: %v", n, timeout, build, succeeded, res.Err)
		default:
			continue
		}
		if res.Trace.Counters["hom_inferred"] > 0 {
			if succeeded < 3 {
				t.Fatalf("job %d found the order built after %d jobs succeeded; want the first build cut short, and none before it failing", n, succeeded-1)
			}
			t.Logf("under a %v timeout (a whole build %v), job %d found the order built, %d jobs after the first success", timeout, build, n, succeeded-1)
			return
		}
	}
	t.Fatalf("200 jobs under a %v timeout (a whole build %v) left the key without an order", timeout, build)
}

// TestOrderGivesUp pins the build's two bounds. A universe of mostly
// incomparable nodes (one P_i(x) per unary relation, with its empty
// frontier member) would need ~3n/4 searches per node: the build after
// the whole walk gives up within its budget, the universe stays
// unordered for good, so a later walk searches nothing, and jobs answer
// as the oracle does. And past maxOrderNodes nodes the
// build gives up before any search.
func TestOrderGivesUp(t *testing.T) {
	var rels []schema.Relation
	for i := range 100 {
		rels = append(rels, schema.Relation{Name: fmt.Sprintf("P%d", i), Arity: 1})
	}
	sch := schema.MustNew(rels...)
	c := universe.NewCache()
	base := universe.WithCache(context.Background(), c)
	rec := obs.NewRecorder()
	collect(obs.WithRecorder(base, rec), sch, 1, 1, 1, nil)
	nodes, inserted := universe.Nodes(c, sch, 1, 1, 1)
	if len(nodes) != 200 || inserted != 0 {
		t.Fatalf("a whole walk left %d nodes, %d of them ordered; want 200, unordered", len(nodes), inserted)
	}
	// The budget is 128 searches per node, checked once per node.
	if searches := rec.Count(obs.CtrHomSearches); searches > 128*200+2*200+1000 {
		t.Errorf("the walk ran %d hom searches; its build should give up within 128 per node", searches)
	}
	rec = obs.NewRecorder()
	collect(obs.WithRecorder(base, rec), sch, 1, 1, 1, nil)
	if searches := rec.Count(obs.CtrHomSearches); searches != 0 {
		t.Errorf("a walk after the build gave up ran %d hom searches, want none", searches)
	}
	rng := rand.New(rand.NewSource(47))
	for range 3 {
		e, ok := randomCollection(rng, sch, 1)
		if !ok {
			continue
		}
		var got []*cq.CQ
		err := fitting.ForEachWeaklyMostGeneralCtx(base, e, fitting.SearchOpts{MaxAtoms: 1, MaxVars: 1}, func(q *cq.CQ) bool {
			got = append(got, q)
			return true
		})
		want, wantErr := oracleAll(e, fitting.SearchOpts{MaxAtoms: 1, MaxVars: 1})
		if fmt.Sprint(render(got)) != fmt.Sprint(render(want)) || errText(err) != errText(wantErr) {
			t.Errorf("pos=%v neg=%v: %v (%v), oracle %v (%v)", e.Pos, e.Neg, render(got), err, render(want), wantErr)
		}
	}

	q, err := cq.Parse(schRP, "q(x) :- R(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	rec = obs.NewRecorder()
	ctx := obs.WithRecorder(t.Context(), rec)
	if !universe.OrdersCopies(ctx, q, universe.MaxOrderNodes) || universe.OrdersCopies(ctx, q, universe.MaxOrderNodes+1) {
		t.Errorf("orders of %d and %d equivalent nodes: want the first built, the second not", universe.MaxOrderNodes, universe.MaxOrderNodes+1)
	}
	// Equivalent nodes settle each other: two searches per node.
	if searches := rec.Count(obs.CtrHomSearches); searches != 2*(universe.MaxOrderNodes-1) {
		t.Errorf("the two builds ran %d hom searches, want %d", searches, 2*(universe.MaxOrderNodes-1))
	}
}
