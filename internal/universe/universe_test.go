package universe_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"extremalcq/internal/cq"
	"extremalcq/internal/engine"
	"extremalcq/internal/enum"
	"extremalcq/internal/fitting"
	"extremalcq/internal/genex"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/schema"
	"extremalcq/internal/solve"
	"extremalcq/internal/universe"
)

var (
	schR   = schema.MustNew(schema.Relation{Name: "R", Arity: 2})
	schRP  = schema.MustNew(schema.Relation{Name: "R", Arity: 2}, schema.Relation{Name: "P", Arity: 1})
	schRPQ = schema.MustNew(schema.Relation{Name: "R", Arity: 2}, schema.Relation{Name: "P", Arity: 1}, schema.Relation{Name: "Q", Arity: 1})
)

// oracleWMG is the weakly most-general search as it ran before its
// candidate universe was compiled: the core of the positive product,
// then every enumerated candidate in order, each through the whole
// Prop 3.11 test (fit, core, c-acyclicity, frontier into the
// negatives). It is the differential oracle for the compiled path.
func oracleWMG(ctx context.Context, e fitting.Examples, opts fitting.SearchOpts, yield func(*cq.CQ) bool) error {
	var firstErr error
	try := func(ex instance.Pointed, hardErr bool) bool {
		solve.Check(ctx)
		q, err := cq.FromExample(ex)
		if err != nil {
			return true
		}
		ok, err := fitting.VerifyWeaklyMostGeneralCtx(ctx, q, e)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return !hardErr
		}
		if ok {
			return yield(q.CoreCtx(ctx))
		}
		return true
	}
	if prod, err := e.PositiveProductCtx(ctx); err == nil && prod.IsDataExample() {
		if !try(hom.CoreCtx(ctx, prod), false) {
			return firstErr
		}
	}
	genex.EnumerateDataExamplesCtx(ctx, e.Schema, e.Arity, opts.MaxAtoms, opts.MaxVars, func(ex instance.Pointed) bool {
		return try(ex, true)
	})
	return firstErr
}

// oracleAll is oracleWMG deduplicated up to equivalence, as the
// streaming search reports it.
func oracleAll(e fitting.Examples, opts fitting.SearchOpts) ([]*cq.CQ, error) {
	ctx := context.Background()
	seen := enum.NewIndex(nil)
	var all []*cq.CQ
	err := oracleWMG(ctx, e, opts, func(q *cq.CQ) bool {
		if !seen.SeenCore(ctx, q.Example()) {
			all = append(all, q)
		}
		return true
	})
	return all, err
}

// job is one weakly-most-general or basis question, asked one-shot or
// streamed.
type job struct {
	e      fitting.Examples
	task   engine.Task
	opts   fitting.SearchOpts
	stream bool
}

func (j job) String() string {
	return fmt.Sprintf("%s stream=%v k=%d %d/%d pos=%v neg=%v", j.task, j.stream, j.e.Arity, j.opts.MaxAtoms, j.opts.MaxVars, j.e.Pos, j.e.Neg)
}

func (j job) engineJob() engine.Job {
	return engine.Job{Kind: engine.KindCQ, Task: j.task, Examples: j.e, Opts: j.opts}
}

// outcome is what a job reports: its frames (streamed jobs only) and
// its result.
type outcome struct {
	frames  []string
	found   bool
	queries []string
	err     string
}

func (o outcome) String() string {
	return fmt.Sprintf("frames=%q found=%v queries=%q err=%q", o.frames, o.found, o.queries, o.err)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func render(qs []*cq.CQ) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.String()
	}
	return out
}

// oracle is the outcome the engine must report for j: the engine's
// result shaping (runCQ, streamCQ, finishEnumStream) restated over
// oracleWMG.
func oracle(j job) outcome {
	if j.task == engine.TaskWeaklyMostGeneral && !j.stream {
		var first *cq.CQ
		err := oracleWMG(context.Background(), j.e, j.opts, func(q *cq.CQ) bool {
			first = q
			return false
		})
		o := outcome{found: first != nil, err: errText(err)}
		if err == nil && first != nil {
			o.queries = []string{first.String()}
		}
		return o
	}
	all, err := oracleAll(j.e, j.opts)
	var o outcome
	if j.stream {
		o.frames = render(all)
	}
	switch {
	case err != nil:
		o.err = errText(err)
		if j.task == engine.TaskWeaklyMostGeneral {
			o.found, o.queries = len(all) > 0, render(all)
		}
	case j.task == engine.TaskWeaklyMostGeneral:
		o.found, o.queries = len(all) > 0, render(all)
	case len(all) > 0:
		ok, err := fitting.VerifyBasisCtx(context.Background(), all, j.e)
		o.found, o.err = ok, errText(err)
		if ok && err == nil {
			o.queries = render(all)
		}
	}
	return o
}

// runJob asks eng the job and reports its outcome.
func runJob(ctx context.Context, eng *engine.Engine, j job) outcome {
	if !j.stream {
		res := eng.Do(ctx, j.engineJob())
		return outcome{found: res.Found, queries: res.Queries, err: errText(res.Err)}
	}
	var frames []string
	res := eng.DoStream(ctx, j.engineJob(), func(a engine.Answer) bool {
		frames = append(frames, a.Query)
		return true
	})
	return outcome{frames: frames, found: res.Found, queries: res.Queries, err: errText(res.Err)}
}

// identical compares outcomes byte for byte (nil and empty lists
// render alike).
func identical(a, b outcome) bool { return a.String() == b.String() }

// equivalent compares outcomes up to equivalence of each frame and
// query, position by position.
func equivalent(t *testing.T, sch *schema.Schema, a, b outcome) bool {
	t.Helper()
	same := func(xs, ys []string) bool {
		if len(xs) != len(ys) {
			return false
		}
		for i := range xs {
			qa, qb := parseAnswer(t, sch, xs[i]), parseAnswer(t, sch, ys[i])
			if !hom.Equivalent(qa.Example(), qb.Example()) {
				return false
			}
		}
		return true
	}
	return a.found == b.found && a.err == b.err && same(a.frames, b.frames) && same(a.queries, b.queries)
}

// parseAnswer parses a rendered answer, first renaming the ⟨a,b⟩
// variables of product cores (which the query parser reserves) to
// plain identifiers; renaming keeps the canonical example isomorphic.
func parseAnswer(t *testing.T, sch *schema.Schema, s string) *cq.CQ {
	t.Helper()
	var out strings.Builder
	names := map[string]string{}
	depth, start := 0, 0
	for i, r := range s {
		switch {
		case r == '⟨':
			if depth == 0 {
				start = i
			}
			depth++
		case r == '⟩':
			depth--
			if depth == 0 {
				tok := s[start : i+len("⟩")]
				if _, ok := names[tok]; !ok {
					names[tok] = fmt.Sprintf("pv%d", len(names))
				}
				out.WriteString(names[tok])
			}
		case depth == 0:
			out.WriteRune(r)
		}
	}
	q, err := cq.Parse(sch, out.String())
	if err != nil {
		t.Fatalf("answer %q does not parse: %v", s, err)
	}
	return q
}

// randomCollection draws a small labeled collection shaped like
// perfbench's stream workload: zero to two positives over 2-3 values
// and one or two small negatives over 2 values, which leaves room for
// weakly most-general answers. Arity-2 draws may repeat a
// distinguished value, so some products are non-UNP and exercise the
// product-candidate error.
func randomCollection(rng *rand.Rand, sch *schema.Schema, k int) (fitting.Examples, bool) {
	draw := func(n, dom, facts int) []instance.Pointed {
		out := make([]instance.Pointed, n)
		for i := range out {
			out[i] = genex.RandomPointed(rng, sch, dom, 1+rng.Intn(facts), k)
		}
		return out
	}
	pos := draw(rng.Intn(3), 2+rng.Intn(2), 4)
	e, err := fitting.NewExamples(sch, k, pos, draw(1+rng.Intn(2), 2, 2))
	return e, err == nil
}

// space is one (schema, arity, bounds) key of the differential.
type space struct {
	sch  *schema.Schema
	k    int
	opts fitting.SearchOpts
}

// diffSpaces covers several schemas, arities 0-2 and bounds from 2/3 to
// 4/4, keeping each universe small enough for -race runs.
func diffSpaces() []space {
	b := func(a, v int) fitting.SearchOpts { return fitting.SearchOpts{MaxAtoms: a, MaxVars: v} }
	return []space{
		{schR, 0, b(4, 4)}, {schR, 1, b(4, 4)}, {schR, 2, b(3, 4)},
		{schRP, 0, b(4, 4)}, {schRP, 1, b(3, 4)}, {schRP, 2, b(2, 3)},
		{schRPQ, 0, b(3, 4)}, {schRPQ, 1, b(3, 4)}, {schRPQ, 2, b(2, 3)},
		{schRPQ, 1, b(2, 3)}, {schRP, 2, b(3, 3)},
	}
}

// jobsFor draws n collections over sp and asks each every question:
// weakly-most-general and basis, one-shot and streamed.
func jobsFor(rng *rand.Rand, sp space, n int) []job {
	var out []job
	for len(out) < 4*n {
		e, ok := randomCollection(rng, sp.sch, sp.k)
		if !ok {
			continue
		}
		for _, task := range []engine.Task{engine.TaskWeaklyMostGeneral, engine.TaskBasis} {
			for _, stream := range []bool{false, true} {
				out = append(out, job{e: e, task: task, opts: sp.opts, stream: stream})
			}
		}
	}
	return out
}

// TestUniverseDifferential runs random collections through the engine,
// whose weakly-most-general search walks the compiled universe, and
// through the oracle, which walks every candidate. With single-threaded
// hom searches every frame, query and error must match byte for byte;
// at the default parallelism (witnesses, hence core variable names,
// depend on timing) answers must match up to equivalence.
func TestUniverseDifferential(t *testing.T) {
	exact := engine.New(engine.Options{SearchWorkers: 1})
	defer exact.Close()
	parallel := engine.New(engine.Options{})
	defer parallel.Close()

	rng := rand.New(rand.NewSource(17))
	var jobs, answered, errs int
	for _, sp := range diffSpaces() {
		for _, j := range jobsFor(rng, sp, 3) {
			want := oracle(j)
			if got := runJob(t.Context(), exact, j); !identical(got, want) {
				t.Errorf("%v\nSearchWorkers 1: %v\noracle:          %v", j, got, want)
			}
			if got := runJob(t.Context(), parallel, j); !equivalent(t, sp.sch, got, want) {
				t.Errorf("%v\ndefault workers: %v\noracle:          %v", j, got, want)
			}
			jobs++
			if want.found {
				answered++
			}
			if want.err != "" {
				errs++
			}
		}
	}
	// The comparison is only as strong as the answers and errors it saw.
	if answered < jobs/8 || errs == 0 {
		t.Fatalf("differential too weak: %d jobs, %d with answers, %d with errors", jobs, answered, errs)
	}
	t.Logf("%d jobs, %d with answers, %d with errors", jobs, answered, errs)
}

// TestUniverseConcurrentFirstCompile submits jobs over one key all at
// once to a fresh engine, so several walk and compile the universe
// concurrently, then a second wave that replays the cached universe
// concurrently. Under -race this also checks that shared entries are
// read without writes.
func TestUniverseConcurrentFirstCompile(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4, SearchWorkers: 1})
	defer eng.Close()
	sp := space{schRPQ, 1, fitting.SearchOpts{MaxAtoms: 3, MaxVars: 4}}
	rng := rand.New(rand.NewSource(5))
	jobs := jobsFor(rng, sp, 2)
	for wave := 0; wave < 2; wave++ {
		got := make([]outcome, len(jobs))
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = runJob(t.Context(), eng, j)
			}()
		}
		wg.Wait()
		for i, j := range jobs {
			if want := oracle(j); !identical(got[i], want) {
				t.Errorf("wave %d %v\nengine: %v\noracle: %v", wave, j, got[i], want)
			}
		}
		// The second wave must ask new questions of the cached universe,
		// not adopt the first wave's stored or deduplicated results.
		jobs = jobsFor(rng, sp, 2)
	}
}

// collect walks a key under ctx accepting every candidate, and
// renders the queries yielded.
func collect(ctx context.Context, sch *schema.Schema, k, atoms, vars int, stop func(n int) bool) []string {
	var out []string
	universe.ForEach(ctx, sch, k, atoms, vars, nil, func(*cq.CQ, int) bool { return true }, func(e *universe.Entry) bool {
		out = append(out, e.Query.String())
		return stop == nil || !stop(len(out))
	})
	return out
}

// TestUniverseConcurrentResume starts several walks at once from one
// cached prefix: each must compile on to the uninterrupted compile's
// entries, and under -race their appends must not share an array.
func TestUniverseConcurrentResume(t *testing.T) {
	sch, k, atoms, vars := schRPQ, 1, 3, 4
	want := collect(universe.WithCache(t.Context(), universe.NewCache()), sch, k, atoms, vars, nil)
	ctx := universe.WithCache(t.Context(), universe.NewCache())
	collect(ctx, sch, k, atoms, vars, func(n int) bool { return n == 5 })
	got := make([][]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = collect(ctx, sch, k, atoms, vars, nil)
		}()
	}
	wg.Wait()
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want) {
			t.Errorf("walk %d resumed to %v, uninterrupted compile %v", i, got[i], want)
		}
	}
}

// TestUniverseCutShortWalkKeepsPrefix pins the cache's contract: a walk
// cut short by cancellation or by its consumer keeps the prefix it
// compiled, a later walk replays that prefix and compiles on from
// where it stopped, and only a whole walk marks the universe complete.
// Whatever the walks' history, the replay yields the entries of one
// uninterrupted compile, which are the live walk's candidates with
// every later member of an isomorphism class dropped.
func TestUniverseCutShortWalkKeepsPrefix(t *testing.T) {
	sch, k, atoms, vars := schRPQ, 1, 3, 4
	compiled := func(c *universe.Cache) (int, int, bool) {
		entries, walked, complete, _ := universe.Compiled(c, sch, k, atoms, vars)
		return entries, walked, complete
	}
	want := collect(universe.WithCache(context.Background(), universe.NewCache()), sch, k, atoms, vars, nil)
	if len(want) != 134 {
		t.Fatalf("R/2, P/1, Q/1 at arity 1 with 3 atoms and 4 variables compiles %d entries, want 134", len(want))
	}
	var live []string
	seen := enum.NewIndex(nil)
	universe.ForEach(context.Background(), sch, k, atoms, vars, nil, func(*cq.CQ, int) bool { return true }, func(e *universe.Entry) bool {
		if !seen.SeenCore(context.Background(), e.Query.Example()) {
			live = append(live, e.Query.String())
		}
		return true
	})
	if fmt.Sprint(live) != fmt.Sprint(want) {
		t.Fatalf("live walk, deduplicated, yields %v; compiled %v", live, want)
	}

	c := universe.NewCache()
	base := universe.WithCache(context.Background(), c)
	ctx, cancel := context.WithCancel(base)
	err := func() (err error) {
		defer solve.Catch(&err)
		collect(ctx, sch, k, atoms, vars, func(n int) bool {
			if n == 5 {
				cancel()
			}
			return false
		})
		return nil
	}()
	entries, walked, complete := compiled(c)
	if !errors.Is(err, context.Canceled) || entries != 5 || complete {
		t.Fatalf("cancelled walk: err %v; kept %d entries over %d candidates, complete %v", err, entries, walked, complete)
	}
	if got := collect(base, sch, k, atoms, vars, func(n int) bool { return n == 3 }); fmt.Sprint(got) != fmt.Sprint(want[:3]) {
		t.Fatalf("walk stopped inside the prefix yields %v, want %v", got, want[:3])
	}
	if e, w, _ := compiled(c); e != entries || w != walked {
		t.Fatalf("walk stopped inside the prefix changed it: %d entries over %d candidates, was %d over %d", e, w, entries, walked)
	}
	if got := collect(base, sch, k, atoms, vars, func(n int) bool { return n == 40 }); fmt.Sprint(got) != fmt.Sprint(want[:40]) {
		t.Fatalf("walk stopped past the prefix yields %v, want %v", got, want[:40])
	}
	if e, w, complete := compiled(c); e != 40 || w <= walked || complete {
		t.Fatalf("walk stopped past the prefix kept %d entries over %d candidates (complete %v), want 40 over more than %d", e, w, complete, walked)
	}

	if got := collect(base, sch, k, atoms, vars, nil); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("resumed walk yields %v, uninterrupted compile %v", got, want)
	}
	if entries, walked, complete := compiled(c); entries != 134 || walked != 659 || !complete {
		t.Fatalf("whole walk kept %d entries over %d candidates, complete %v; want 134 over 659, complete", entries, walked, complete)
	}
	if got := collect(base, sch, k, atoms, vars, nil); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replay yields %v, uninterrupted compile %v", got, want)
	}
}

// TestUniverseWalkPastCapRetainsAtMostCap pins the memory bound: a
// walk holds at most the cap's facts in entries and isomorphism
// classes, also after it passes the cap and goes on live, and a walk
// without a cache holds nothing. Past the cap a class can repeat, so
// the walk yields more than the 134 classes.
func TestUniverseWalkPastCapRetainsAtMostCap(t *testing.T) {
	sch, k, atoms, vars := schRPQ, 1, 3, 4
	c := universe.NewCacheCapped(40)
	most, yields := universe.MaxRetained(t.Context(), c, sch, k, atoms, vars)
	if most > 40 || yields <= 134 {
		t.Fatalf("walk past a 40-fact cap held up to %d facts over %d yields; want at most 40 facts, more than 134 yields", most, yields)
	}
	if _, _, _, tooBig := universe.Compiled(c, sch, k, atoms, vars); !tooBig {
		t.Fatalf("walk past the cap did not mark its key too big")
	}
	if most, _ := universe.MaxRetained(t.Context(), nil, sch, k, atoms, vars); most != 0 {
		t.Fatalf("walk without a cache held %d facts", most)
	}
	if most, yields := universe.MaxRetained(t.Context(), universe.NewCache(), sch, k, atoms, vars); most != 1515 || yields != 134 {
		t.Fatalf("walk under the shipped cap held %d facts over %d yields, want 1515 over 134", most, yields)
	}
}

// TestUniverseLiveWalkChecksFitFirst pins the order of a live walk:
// without a cache, and for a key marked too big, each raw candidate
// meets the filter before anything is cored, so a filter that rejects
// every candidate leaves the walk without a single hom search.
func TestUniverseLiveWalkChecksFitFirst(t *testing.T) {
	sch, k, atoms, vars := schRPQ, 1, 3, 4
	capped := universe.NewCacheCapped(40)
	collect(universe.WithCache(t.Context(), capped), sch, k, atoms, vars, nil)
	for name, ctx := range map[string]context.Context{
		"no cache":    t.Context(),
		"too-big key": universe.WithCache(t.Context(), capped),
	} {
		rec := obs.NewRecorder()
		checked := 0
		none := func(*cq.CQ, int) bool { checked++; return false }
		universe.ForEach(obs.WithRecorder(ctx, rec), sch, k, atoms, vars, nil, none, func(*universe.Entry) bool {
			t.Fatalf("%s: a rejected candidate was yielded", name)
			return false
		})
		if searches := rec.Report().Counters["hom_searches"]; checked != 659 || searches != 0 {
			t.Errorf("%s: filter saw %d candidates and the walk ran %d hom searches; want 659 and none", name, checked, searches)
		}
	}
}

// TestUniverseCancelledJobThenComplete cancels engine jobs while they
// compile the universe, then asks complete questions of the same key:
// their answers must be the oracle's, so the prefix a cut-short
// compile keeps is sound to resume from.
func TestUniverseCancelledJobThenComplete(t *testing.T) {
	eng := engine.New(engine.Options{SearchWorkers: 1})
	defer eng.Close()
	sp := space{schRPQ, 1, fitting.SearchOpts{MaxAtoms: 3, MaxVars: 4}}
	rng := rand.New(rand.NewSource(9))
	jobs := jobsFor(rng, sp, 2)

	cut := jobs[0].engineJob()
	cut.Timeout = time.Millisecond
	if res := eng.Do(t.Context(), cut); res.Err == nil {
		t.Logf("job finished inside 1ms; compile not cut short on this host")
	} else if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("cut-short job: %v", res.Err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	s := eng.SubmitStream(ctx, jobs[1].engineJob())
	cancel()
	s.Wait()

	for _, j := range jobs {
		if got, want := runJob(t.Context(), eng, j), oracle(j); !identical(got, want) {
			t.Errorf("%v\nengine: %v\noracle: %v", j, got, want)
		}
	}
}

// TestUniverseOverCapMatchesOracle drives walks past the fact cap: the
// key is marked too big, and both the walk that passed the cap and
// later live walks must still yield the oracle's answers.
func TestUniverseOverCapMatchesOracle(t *testing.T) {
	c := universe.NewCacheCapped(40)
	ctx := universe.WithCache(t.Context(), c)
	opts := fitting.SearchOpts{MaxAtoms: 3, MaxVars: 4}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 4; {
		e, ok := randomCollection(rng, schRPQ, 1)
		if !ok {
			continue
		}
		i++
		var got []*cq.CQ
		err := fitting.ForEachWeaklyMostGeneralCtx(ctx, e, opts, func(q *cq.CQ) bool {
			got = append(got, q)
			return true
		})
		want, wantErr := oracleAll(e, opts)
		if fmt.Sprint(render(got)) != fmt.Sprint(render(want)) || errText(err) != errText(wantErr) {
			t.Errorf("pos=%v neg=%v: over-cap walk %v (%v), oracle %v (%v)", e.Pos, e.Neg, render(got), err, render(want), wantErr)
		}
	}
	if entries, _, _, tooBig := universe.Compiled(c, schRPQ, 1, 3, 4); entries != 0 || !tooBig {
		t.Fatalf("over-cap key holds %d entries, too big %v; want none, too big", entries, tooBig)
	}

	// At the shipped cap: R/2, P/1, Q/1 at arity 1 with 4 atoms and 4
	// variables retains more than MaxFacts facts.
	eng := engine.New(engine.Options{SearchWorkers: 1})
	defer eng.Close()
	sp := space{schRPQ, 1, fitting.SearchOpts{MaxAtoms: 4, MaxVars: 4}}
	for _, j := range jobsFor(rand.New(rand.NewSource(29)), sp, 1)[2:] {
		if got, want := runJob(t.Context(), eng, j), oracle(j); !identical(got, want) {
			t.Errorf("%v\nengine: %v\noracle: %v", j, got, want)
		}
	}
}

// TestUniverseWarmJobChecksOneCandidatePerClass pins the saving: on a
// warm engine a job over stream-1c's key (R/2, P/1, Q/1; arity 1; 3
// atoms; 4 variables) checks the product's core and the 134 compiled
// classes, not the 659 enumerated candidates, and searches only for
// the verdicts the universe's order does not settle: 20 hom searches,
// where checking every class and frontier member searched 145 times.
func TestUniverseWarmJobChecksOneCandidatePerClass(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	spec := func(pos string) engine.JobSpec {
		return engine.JobSpec{
			Schema: "R/2,P/1,Q/1", Arity: 1, Kind: "cq", Task: "weakly-most-general",
			Pos: []string{pos}, Neg: []string{"P(u) @ u"}, MaxAtoms: 3, MaxVars: 4,
		}
	}
	cold, err := spec("R(a,b). R(b,c). Q(c) @ a").Build()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := spec("R(a,b). Q(b). R(b,d) @ a").Build()
	if err != nil {
		t.Fatal(err)
	}
	warm.Trace = true
	if res := eng.DoStream(t.Context(), cold, nil); res.Err != nil {
		t.Fatal(res.Err)
	}
	res := eng.DoStream(t.Context(), warm, nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := res.Trace.Counters["enum_candidates"]; got != 135 {
		t.Errorf("warm job checked %d candidates, want 135 (the product's core and 134 classes)", got)
	}
	if got := res.Trace.Counters["hom_searches"]; got != 20 {
		t.Errorf("warm job ran %d hom searches, want 20 (%d verdicts inferred)", got, res.Trace.Counters["hom_inferred"])
	}
}
