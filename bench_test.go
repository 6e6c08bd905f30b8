// Benchmarks regenerating the paper's evaluation artifacts: one
// benchmark (family) per row of Tables 1–3 and per figure/size-theorem
// workload. Absolute timings are machine-dependent; the *shape* —
// which problems are cheap (PTime rows), which blow up exponentially
// (product-based rows), and how witness sizes scale (Thm 3.40/3.41/3.42,
// Thm 5.37) — mirrors the paper. Size metrics are attached with
// b.ReportMetric. The performance record is perfbench, not this file:
// `bash perfbench/run.sh --workload solve-1c|stream-1c|serve-2c`
// (see perfbench/main.go).
package extremalcq

import (
	"context"
	"fmt"
	"testing"

	"extremalcq/internal/cq"
	"extremalcq/internal/duality"
	"extremalcq/internal/engine"
	"extremalcq/internal/fitting"
	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/tree"
	"extremalcq/internal/ucqfit"
)

func mustPointed(sch *Schema, s string) Example {
	p, err := instance.ParsePointed(sch, s)
	if err != nil {
		panic(err)
	}
	return p
}

var rpqSchema = MustSchema(
	Rel{Name: "R", Arity: 2},
	Rel{Name: "P", Arity: 1},
	Rel{Name: "Q", Arity: 1},
)

// ---------------------------------------------------------------------
// Table 1 — CQs
// ---------------------------------------------------------------------

// Row "Any Fitting" / Verification (DP-complete; Thm 3.1): the
// exact-4-colorability workload.
func BenchmarkT1AnyVerify(b *testing.B) {
	e := fitting.MustExamples(genex.SchemaR(), 0,
		[]Example{genex.Clique(4)}, []Example{genex.Clique(3)})
	q := cq.MustFromExample(genex.Clique(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !fitting.Verify(q, e) {
			b.Fatal("K4 must verify")
		}
	}
}

// Row "Any Fitting" / Existence + Construction (coNExpTime-c /
// ExpTime; Thm 3.2/3.3): the prime-cycle family. The positive product —
// and with it the cost — grows as the product of the primes.
func BenchmarkT1AnyExistence(b *testing.B) {
	for n := 2; n <= 4; n++ {
		pos, neg := genex.PrimeCycleFamily(n)
		e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)
		b.Run(fmt.Sprintf("primes=%d", n), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				q, ok, err := fitting.Construct(e)
				if err != nil || !ok {
					b.Fatal("fitting must exist")
				}
				size = q.NumVars()
			}
			b.ReportMetric(float64(size), "fitting_vars")
		})
	}
}

// Row "Most-Specific" / Verification (NExpTime-c; Thm 3.7): the product
// homomorphism workload of Thm 3.38(1).
func BenchmarkT1MostSpecificVerify(b *testing.B) {
	j := genex.DirectedCycle(6)
	u1, _ := instance.DisjointUnion(genex.DirectedCycle(2), j)
	u2, _ := instance.DisjointUnion(genex.DirectedCycle(3), j)
	e := fitting.MustExamples(genex.SchemaR(), 0, []Example{u1, u2}, nil)
	q := cq.MustFromExample(j)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !fitting.VerifyMostSpecific(q, e) {
			b.Fatal("C6 must be most-specific")
		}
	}
}

// Row "Weakly Most-General" / Verification (NP-c; Thm 3.12): frontier
// construction plus homomorphism checks, Example 3.10(4).
func BenchmarkT1WMGVerify(b *testing.B) {
	e := fitting.MustExamples(rpqSchema, 0, nil, []Example{
		mustPointed(rpqSchema, "R(u,v). R(v,u)"),
		mustPointed(rpqSchema, "P(a)"),
		mustPointed(rpqSchema, "Q(a)"),
	})
	q := cq.MustParse(rpqSchema, "q() :- P(x), Q(y)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := fitting.VerifyWeaklyMostGeneral(q, e)
		if err != nil || !ok {
			b.Fatal("P∧Q must be weakly most-general")
		}
	}
}

// Row "Weakly Most-General" / Existence (ExpTime-c; Thm 3.13): bounded
// synthesis with the exact verifier on Example 3.10(2).
func BenchmarkT1WMGExistence(b *testing.B) {
	e := fitting.MustExamples(rpqSchema, 0, nil, []Example{
		mustPointed(rpqSchema, "P(a)"),
		mustPointed(rpqSchema, "Q(a)"),
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, found, err := fitting.SearchWeaklyMostGeneral(e, fitting.DefaultSearch())
		if err != nil || !found {
			b.Fatal("a weakly most-general fitting exists")
		}
	}
}

// Row "Basis of Most-General" / Verification (NExpTime-c; Thm 3.31):
// duality construction + relativized product checks, Example 3.10(2).
func BenchmarkT1BasisVerify(b *testing.B) {
	e := fitting.MustExamples(rpqSchema, 0, nil, []Example{
		mustPointed(rpqSchema, "P(a)"),
		mustPointed(rpqSchema, "Q(a)"),
	})
	basis := []*cq.CQ{
		cq.MustParse(rpqSchema, "q() :- R(x,y)"),
		cq.MustParse(rpqSchema, "q() :- P(x), Q(y)"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := fitting.VerifyBasis(basis, e)
		if err != nil || !ok {
			b.Fatal("the basis must verify")
		}
	}
}

// Row "Basis of Most-General" / Existence (NExpTime-c): bounded search
// on Example 3.10(2).
func BenchmarkT1BasisExistence(b *testing.B) {
	e := fitting.MustExamples(rpqSchema, 0, nil, []Example{
		mustPointed(rpqSchema, "P(a)"),
		mustPointed(rpqSchema, "Q(a)"),
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basis, found, err := fitting.SearchBasis(e, fitting.DefaultSearch())
		if err != nil || !found || len(basis) != 2 {
			b.Fatal("basis of size 2 must be found")
		}
	}
}

// Row "Unique" / Verification + Existence (NExpTime-c; Thm 3.35):
// Example 3.33.
func BenchmarkT1UniqueExistence(b *testing.B) {
	i := instance.MustFromFacts(genex.SchemaR(),
		instance.NewFact("R", "a", "b"),
		instance.NewFact("R", "b", "a"),
		instance.NewFact("R", "b", "b"))
	e := fitting.MustExamples(genex.SchemaR(), 1,
		[]Example{instance.NewPointed(i, "b")},
		[]Example{instance.NewPointed(i, "a")})
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_, ok, err := fitting.ExistsUnique(e)
		if err != nil || !ok {
			b.Fatal("unique fitting must exist")
		}
	}
}

// Theorem 3.40: fitting size grows as the product of the primes (~2^n)
// from polynomially-sized examples.
func BenchmarkSizeLowerBoundCQ(b *testing.B) {
	for n := 2; n <= 5; n++ {
		pos, neg := genex.PrimeCycleFamily(n)
		e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var vars, input int
			for i := 0; i < b.N; i++ {
				q, ok, _ := fitting.Construct(e)
				if !ok {
					b.Fatal("must exist")
				}
				vars = q.NumVars()
				input = e.Size()
			}
			b.ReportMetric(float64(vars), "fitting_vars")
			b.ReportMetric(float64(input), "input_facts")
		})
	}
}

// Theorem 3.41: unique fitting CQs of size 2^n.
func BenchmarkSizeUniqueFitting(b *testing.B) {
	for n := 1; n <= 3; n++ {
		sch, pos, neg := genex.BitStringFamily(n)
		e := fitting.MustExamples(sch, 0, pos, []Example{neg})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var vars int
			for i := 0; i < b.N; i++ {
				q, ok, err := fitting.ExistsUnique(e)
				if err != nil || !ok {
					b.Fatal("unique fitting must exist (Thm 3.41)")
				}
				vars = q.NumVars()
			}
			b.ReportMetric(float64(vars), "unique_fitting_vars")
		})
	}
}

// Theorem 3.42: minimal bases with 2^(2^n) members (n=1: 4 members,
// each verified weakly most-general and pairwise incomparable).
func BenchmarkBasisCardinality(b *testing.B) {
	sch, pos, neg := genex.BasisFamily(1)
	e := fitting.MustExamples(sch, 0, pos, []Example{neg})
	members := genex.BasisMembers(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for _, m := range members {
			q := cq.MustFromExample(m)
			ok, err := fitting.VerifyWeaklyMostGeneral(q, e)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				count++
			}
		}
		if count != 4 {
			b.Fatalf("want 2^(2^1)=4 weakly most-general members, got %d", count)
		}
	}
	b.ReportMetric(4, "basis_members")
}

// ---------------------------------------------------------------------
// Table 2 — UCQs
// ---------------------------------------------------------------------

// Rows "Any"/"Most-Specific" (coNP-c existence, PTime construction,
// DP-c verification; Thm 4.6): graph-homomorphism workload.
func BenchmarkT2AnyUCQ(b *testing.B) {
	e := fitting.MustExamples(genex.SchemaR(), 0,
		[]Example{genex.DirectedCycle(3)},
		[]Example{genex.DirectedCycle(2)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, ok, err := ucqfit.Construct(e)
		if err != nil || !ok {
			b.Fatal("fitting UCQ must exist")
		}
		if !ucqfit.VerifyMostSpecific(u, e) {
			b.Fatal("canonical UCQ is most-specific")
		}
	}
}

// Row "Most-General" (NP-c existence via dismantling; Thm 4.6(2)).
func BenchmarkT2MostGeneralUCQ(b *testing.B) {
	e := fitting.MustExamples(genex.SchemaR(), 0,
		nil, []Example{genex.TransitiveTournament(3)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ucqfit.ExistsMostGeneral(e) {
			b.Fatal("most-general fitting UCQ exists for tournament negatives")
		}
	}
}

// Row "Unique" (HomDual-equivalent; Thm 4.8): Example 4.1.
func BenchmarkT2UniqueUCQ(b *testing.B) {
	pqr := MustSchema(Rel{Name: "P", Arity: 1}, Rel{Name: "Q", Arity: 1}, Rel{Name: "R", Arity: 1})
	e := fitting.MustExamples(pqr, 0,
		[]Example{mustPointed(pqr, "P(a). Q(a)"), mustPointed(pqr, "P(a). R(a)")},
		[]Example{mustPointed(pqr, "P(a). Q(b). R(b)")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := ucqfit.ExistsUnique(e)
		if err != nil || !ok {
			b.Fatal("Example 4.1 has a unique fitting UCQ")
		}
	}
}

// The HomDual problem itself (between NP and ExpTime; Prop 4.7): the
// GHRV family.
func BenchmarkHomDual(b *testing.B) {
	for n := 2; n <= 4; n++ {
		F, D := duality.GHRV(n)
		b.Run(fmt.Sprintf("path=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := duality.IsHomDuality(F, D)
				if err != nil || !ok {
					b.Fatal("GHRV must be a duality")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Table 3 — tree CQs
// ---------------------------------------------------------------------

var lraExamples = func() fitting.Examples {
	pos, neg := genex.DoubleExpTreeFamily(1)
	return fitting.MustExamples(genex.SchemaLRA(), 1, pos, neg)
}()

// Row "Any Fitting" / Verification (PTime; Thm 5.9).
func BenchmarkT3AnyTreeVerify(b *testing.B) {
	dag, ok, err := tree.Construct(lraExamples)
	if err != nil || !ok {
		b.Fatal("fitting must exist")
	}
	q, err := dag.Expand(100000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fits, err := tree.Verify(q, lraExamples)
		if err != nil || !fits {
			b.Fatal("witness must fit")
		}
	}
}

// Row "Any Fitting" / Existence (ExpTime-c; Thm 5.10): product +
// simulation fixpoint.
func BenchmarkT3AnyTreeExistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ok, err := tree.Exists(lraExamples)
		if err != nil || !ok {
			b.Fatal("fitting must exist")
		}
	}
}

// Row "Most-Specific" (ExpTime-c; Thm 5.15/5.18): complete initial
// pieces via the greedy requirement closure.
func BenchmarkT3MostSpecificTree(b *testing.B) {
	sch := MustSchema(Rel{Name: "R", Arity: 2}, Rel{Name: "P", Arity: 1})
	pos := mustPointed(sch, "R(a,b). P(b) @ a")
	e := fitting.MustExamples(sch, 1, []Example{pos}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := tree.ConstructMostSpecific(e, 10000)
		if err != nil || !ok {
			b.Fatal("most-specific tree fitting must exist")
		}
	}
}

// Row "Weakly Most-General" / Verification (PTime; Thm 5.23):
// Example 5.20.
func BenchmarkT3WMGTree(b *testing.B) {
	e := fitting.MustExamples(rpqSchema, 1,
		[]Example{mustPointed(rpqSchema, "P(a). R(a,b). Q(b) @ a")},
		[]Example{
			mustPointed(rpqSchema, "P(a). R(a,b) @ a"),
			mustPointed(rpqSchema, "R(a,b). R(c,b). R(c,d). Q(d) @ a"),
		})
	q := cq.MustParse(rpqSchema, "q(x) :- R(x,y), Q(y)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := tree.VerifyWeaklyMostGeneral(q, e)
		if err != nil || !ok {
			b.Fatal("Example 5.20's q is weakly most-general")
		}
	}
}

// Row "Unique" (ExpTime-c; Thm 5.25).
func BenchmarkT3UniqueTree(b *testing.B) {
	sch := MustSchema(Rel{Name: "R", Arity: 2}, Rel{Name: "P", Arity: 1})
	e := fitting.MustExamples(sch, 1,
		[]Example{mustPointed(sch, "R(a,b) @ a")},
		[]Example{mustPointed(sch, "P(a) @ a")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := tree.ExistsUnique(e)
		if err != nil || !ok {
			b.Fatal("unique tree fitting must exist")
		}
	}
}

// Row "Basis of Most-General" / Verification (ExpTime-c; Thm 5.28).
func BenchmarkT3BasisTree(b *testing.B) {
	sch := MustSchema(Rel{Name: "R", Arity: 2}, Rel{Name: "P", Arity: 1})
	e := fitting.MustExamples(sch, 1, nil, []Example{mustPointed(sch, "P(a) @ a")})
	basis, found, err := tree.SearchBasis(e, fitting.SearchOpts{MaxAtoms: 2, MaxVars: 3})
	if err != nil || !found {
		b.Skip("no basis within bounds for this workload")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := tree.VerifyBasis(basis, e)
		if err != nil || !ok {
			b.Fatal("basis must verify")
		}
	}
}

// Theorem 5.37 / Figure 5: fitting tree CQs of double-exponential size;
// the DAG stays small while the expanded tree explodes.
func BenchmarkSizeLowerBoundTreeCQ(b *testing.B) {
	for n := 1; n <= 3; n++ {
		pos, neg := genex.DoubleExpTreeFamily(n)
		e := fitting.MustExamples(genex.SchemaLRA(), 1, pos, neg)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var depth, dagNodes int
			var size uint64
			for i := 0; i < b.N; i++ {
				dag, ok, err := tree.Construct(e)
				if err != nil || !ok {
					b.Fatal("fitting must exist")
				}
				depth, dagNodes = dag.Depth, dag.NumNodes()
				size = dag.TreeSize(1 << 62)
			}
			b.ReportMetric(float64(depth), "depth")
			b.ReportMetric(float64(dagNodes), "dag_nodes")
			b.ReportMetric(float64(size), "tree_nodes")
		})
	}
}

// ---------------------------------------------------------------------
// Fitting engine — memoization and batching
// ---------------------------------------------------------------------

// engineT1Job is the Table 1 construction workload (prime-cycle family,
// product-dominated) as an engine job.
func engineT1Job() engine.Job {
	pos, neg := genex.PrimeCycleFamily(3)
	e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)
	return engine.Job{Kind: engine.KindCQ, Task: engine.TaskConstruct, Examples: e}
}

// engineT3Job is the Table 3 tree-construction workload (DAG
// construction plus expansion and core) as an engine job. The
// simulation fixpoint itself is not memoized; the final core is.
func engineT3Job() engine.Job {
	return engine.Job{Kind: engine.KindTree, Task: engine.TaskConstruct, Examples: lraExamples}
}

// Cold cache: every execution recomputes products, hom checks and cores
// from scratch (memoization disabled).
func BenchmarkEngineColdCache(b *testing.B) {
	for _, w := range []struct {
		name string
		job  engine.Job
	}{{"T1construct", engineT1Job()}, {"T3treeConstruct", engineT3Job()}} {
		b.Run(w.name, func(b *testing.B) {
			eng := engine.New(engine.Options{Workers: 1, CacheSize: -1})
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := eng.Do(context.Background(), w.job); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

// Warm cache: the first execution fills the shared memo; repeats of the
// same workload are served from it. The cold/warm delta is the caching
// win on duplicate-heavy traffic.
func BenchmarkEngineWarmCache(b *testing.B) {
	for _, w := range []struct {
		name string
		job  engine.Job
	}{{"T1construct", engineT1Job()}, {"T3treeConstruct", engineT3Job()}} {
		b.Run(w.name, func(b *testing.B) {
			eng := engine.New(engine.Options{Workers: 1})
			defer eng.Close()
			if res := eng.Do(context.Background(), w.job); res.Err != nil {
				b.Fatal(res.Err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := eng.Do(context.Background(), w.job); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			b.StopTimer()
			if hits := eng.Stats().Cache.Hits(); hits == 0 {
				b.Fatal("warm run must hit the memo")
			}
		})
	}
}

// Batch of N duplicate jobs through the engine (worker pool + shared
// memo) vs N sequential direct library calls.
func BenchmarkEngineBatchVsSequential(b *testing.B) {
	const n = 16
	pos, neg := genex.PrimeCycleFamily(3)
	e := fitting.MustExamples(genex.SchemaR(), 0, pos, neg)

	b.Run("sequential-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < n; k++ {
				if _, ok, err := fitting.Construct(e); err != nil || !ok {
					b.Fatal("fitting must exist")
				}
			}
		}
		b.ReportMetric(n, "jobs/op")
	})

	b.Run("engine-batch", func(b *testing.B) {
		eng := engine.New(engine.Options{})
		defer eng.Close()
		jobs := make([]engine.Job, n)
		for k := range jobs {
			jobs[k] = engine.Job{Kind: engine.KindCQ, Task: engine.TaskConstruct, Examples: e}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range eng.DoBatch(context.Background(), jobs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		b.ReportMetric(n, "jobs/op")
	})

	// Cold cache per op: a fresh engine receives the n duplicates with
	// nothing memoized, so the speedup over sequential-direct is pure
	// single-flight dedup (one computation, n-1 coalesced joins).
	b.Run("engine-batch-coldcache", func(b *testing.B) {
		jobs := make([]engine.Job, n)
		for k := range jobs {
			jobs[k] = engine.Job{Kind: engine.KindCQ, Task: engine.TaskConstruct, Examples: e}
		}
		var shared int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Options{Workers: n, QueueSize: n})
			for _, res := range eng.DoBatch(context.Background(), jobs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			shared += eng.Stats().DedupShared
			eng.Close()
		}
		b.ReportMetric(n, "jobs/op")
		b.ReportMetric(float64(shared)/float64(b.N), "deduped/op")
	})
}

// streamWMGJob is an enumeration workload with two weakly most-general
// answers inside a candidate space big enough that the first answer
// arrives long before the search ends — the shape streaming exists for.
func streamWMGJob(maxAtoms, maxVars int) engine.Job {
	e := fitting.MustExamples(rpqSchema, 0, nil, []Example{
		mustPointed(rpqSchema, "P(a)"),
		mustPointed(rpqSchema, "Q(a)"),
	})
	return engine.Job{
		Kind: engine.KindCQ, Task: engine.TaskWeaklyMostGeneral,
		Examples: e,
		Opts:     fitting.SearchOpts{MaxAtoms: maxAtoms, MaxVars: maxVars},
	}
}

// BenchmarkStreamTimeToFirstResult compares what a streaming client
// waits for against what a one-shot client waits for on the same
// enumeration: the first flushed answer frame versus the fully buffered
// search. Caching is disabled so every iteration measures a real search.
func BenchmarkStreamTimeToFirstResult(b *testing.B) {
	job := streamWMGJob(4, 5)

	b.Run("first-frame", func(b *testing.B) {
		eng := engine.New(engine.Options{CacheSize: -1})
		defer eng.Close()
		for i := 0; i < b.N; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			s := eng.SubmitStream(ctx, job)
			if _, ok := <-s.Answers(); !ok {
				b.Fatal("stream ended without a first answer")
			}
			// First answer in hand: a real client could act on it now.
			// Detach so the rest of the search is not billed to this op.
			cancel()
			s.Wait()
		}
	})

	b.Run("full-stream", func(b *testing.B) {
		eng := engine.New(engine.Options{CacheSize: -1})
		defer eng.Close()
		for i := 0; i < b.N; i++ {
			res := eng.DoStream(context.Background(), job, nil)
			if res.Err != nil || !res.Found {
				b.Fatalf("stream must find answers: %+v", res)
			}
		}
	})

	b.Run("one-shot", func(b *testing.B) {
		eng := engine.New(engine.Options{CacheSize: -1})
		defer eng.Close()
		for i := 0; i < b.N; i++ {
			if res := eng.Do(context.Background(), job); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Figures 2–3 and supporting constructions
// ---------------------------------------------------------------------

// Figure 2 workload: disjoint unions of scaling cycles.
func BenchmarkDisjointUnion(b *testing.B) {
	c1 := genex.DirectedCycle(50)
	c2 := genex.DirectedCycle(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := instance.DisjointUnion(c1, c2); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 3 workload: direct products of scaling cycles.
func BenchmarkDirectProduct(b *testing.B) {
	c1 := genex.DirectedCycle(30)
	c2 := genex.DirectedCycle(37)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := instance.Product(c1, c2); err != nil {
			b.Fatal(err)
		}
	}
}

// Frontier construction (Thm 2.12 / Def 3.21) on scaling paths.
func BenchmarkFrontier(b *testing.B) {
	for n := 2; n <= 5; n++ {
		p := genex.DirectedPath(n)
		b.Run(fmt.Sprintf("path=%d", n), func(b *testing.B) {
			var members int
			for i := 0; i < b.N; i++ {
				ms, err := Frontier(p)
				if err != nil {
					b.Fatal(err)
				}
				members = len(ms)
			}
			b.ReportMetric(float64(members), "members")
		})
	}
}

// Dual construction (Thm 2.16(2)) on scaling paths: the dual of P_n is
// hom-equivalent to the tournament T_n.
func BenchmarkDualConstruction(b *testing.B) {
	for n := 2; n <= 4; n++ {
		p := genex.DirectedPath(n)
		b.Run(fmt.Sprintf("path=%d", n), func(b *testing.B) {
			var elements int
			for i := 0; i < b.N; i++ {
				D, err := duality.DualOf(p)
				if err != nil {
					b.Fatal(err)
				}
				elements = D[0].I.DomSize()
			}
			b.ReportMetric(float64(elements), "dual_elements")
		})
	}
}
