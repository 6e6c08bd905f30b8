// Package extremalcq is a Go implementation of "Extremal Fitting
// Problems for Conjunctive Queries" (ten Cate, Dalmau, Funk, Lutz;
// PODS 2023, arXiv:2206.05080).
//
// Given a collection of labeled data examples E = (E+, E-), a query q
// *fits* E if every positive example is an answer and no negative
// example is. This package constructs and verifies fitting conjunctive
// queries (CQs), unions of conjunctive queries (UCQs) and tree CQs, in
// all the extremal flavors the paper studies:
//
//   - arbitrary fittings (Section 3.1),
//   - most-specific fittings — the direct product of the positive
//     examples (Section 3.2),
//   - weakly most-general fittings — characterized by frontiers in the
//     homomorphism pre-order (Section 3.3),
//   - bases of most-general fittings — characterized by relativized
//     homomorphism dualities (Section 3.3),
//   - unique fittings (Section 3.4),
//
// plus the UCQ variants of Section 4 and the tree-CQ variants
// (simulations, unravelings, complete initial pieces) of Section 5.
//
// The facade re-exports the public surface of the internal packages:
//
//	schema    — relational schemas
//	instance  — instances, pointed instances, products, disjoint unions
//	hom       — homomorphisms, cores, arc consistency
//	cq, ucq   — (unions of) conjunctive queries
//	frontier  — frontiers (Def 3.21/3.22)
//	duality   — homomorphism dualities (Thm 2.16, Prop 4.7)
//	fitting   — CQ fitting problems (Section 3)
//	ucqfit    — UCQ fitting problems (Section 4)
//	tree      — tree-CQ fitting problems (Section 5)
//	engine    — concurrent fitting engine (batching, caching, deadlines)
//	store     — persistent fingerprint-keyed result store (segment log)
//
// The engine layer runs any kind × task combination above as a Job on a
// bounded worker pool, memoizing homomorphism checks, cores and direct
// products in a per-engine thread-safe cache and coalescing identical
// in-flight jobs (single-flight dedup), so that duplicate-heavy batches
// do each distinct computation once. Any number of caching engines can
// be live in one process — each owns its memo outright. The solver
// algorithms check their context inside the search loops, so per-job
// timeouts, canceled submission contexts and Close stop in-flight work
// promptly instead of abandoning goroutines:
//
//	eng := extremalcq.NewEngine(extremalcq.EngineOptions{Workers: 8})
//	defer eng.Close()
//	results := eng.DoBatch(ctx, jobs)  // jobs built via Job or JobSpec
//	fmt.Println(eng.Stats().Cache)     // hit rates per memo class
//
// Attaching a persistent store (OpenStore + EngineOptions.Store) makes
// completed results durable: a restarted engine answers
// previously-computed fingerprints from disk without running a solver.
// EngineOptions.MemoSpill additionally persists the memo's hom-check
// verdicts, cores and direct products, so a restarted engine also
// accelerates novel jobs that share sub-computations with earlier work.
//
// The cqfit CLI and the cqfitd HTTP/JSON service are thin wrappers over
// this same execution path.
//
// Quickstart:
//
//	sch := extremalcq.MustSchema(extremalcq.Rel{Name: "R", Arity: 2})
//	pos, _ := extremalcq.ParseExample(sch, "R(a,b). R(b,c) @ a")
//	neg, _ := extremalcq.ParseExample(sch, "R(a,a) @ a")
//	E, _ := extremalcq.NewExamples(sch, 1, []extremalcq.Example{pos}, []extremalcq.Example{neg})
//	q, ok, _ := extremalcq.ConstructFitting(E)
//	if ok { fmt.Println(q) } // a fitting CQ
package extremalcq

import (
	"extremalcq/internal/cq"
	"extremalcq/internal/duality"
	"extremalcq/internal/engine"
	"extremalcq/internal/fitting"
	"extremalcq/internal/frontier"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/schema"
	"extremalcq/internal/store"
	"extremalcq/internal/tree"
	"extremalcq/internal/ucqfit"
)

// Re-exported core types.
type (
	// Schema is a relational schema.
	Schema = schema.Schema
	// Rel declares a relation symbol with its arity.
	Rel = schema.Relation
	// Value is an active-domain element.
	Value = instance.Value
	// Fact is an atomic fact R(a1..an).
	Fact = instance.Fact
	// Instance is a finite set of facts.
	Instance = instance.Instance
	// Example is a pointed instance (I, ā); data examples are pointed
	// instances whose distinguished elements occur in facts.
	Example = instance.Pointed
	// CQ is a conjunctive query.
	CQ = cq.CQ
	// UCQ is a union of conjunctive queries.
	UCQ = ucqfit.UCQ
	// Examples is a collection E = (E+, E-) of labeled examples.
	Examples = fitting.Examples
	// SearchOpts bounds the synthesis searches.
	SearchOpts = fitting.SearchOpts
	// TreeDAG is a succinct DAG representation of a fitting tree CQ.
	TreeDAG = tree.DAG
)

// Schema construction.
var (
	NewSchema  = schema.New
	MustSchema = schema.MustNew
)

// Instances and examples.
var (
	NewInstance  = instance.New
	ParseFacts   = instance.ParseFacts
	ParseExample = instance.ParsePointed
	NewExample   = instance.NewPointed
	// Product computes the direct product of two pointed instances
	// (greatest lower bound, Prop 2.7).
	Product = instance.Product
	// ProductAll folds Product over a list; the empty product is the
	// single-element all-facts instance.
	ProductAll = instance.ProductAll
	// DisjointUnion computes the disjoint union identifying the
	// distinguished tuples (least upper bound, Prop 2.2).
	DisjointUnion = instance.DisjointUnion
	// Components splits a pointed instance into its connected components
	// (Example 2.3 semantics).
	Components = instance.Components
	// CAcyclic tests c-acyclicity (Def 2.10).
	CAcyclic = instance.CAcyclic
)

// Homomorphisms and cores.
var (
	// HomExists tests for a homomorphism between pointed instances.
	HomExists = hom.Exists
	// HomFindAll enumerates all homomorphisms between pointed instances,
	// yielding each as the search reaches it.
	HomFindAll = hom.FindAll
	// HomEquivalent tests homomorphic equivalence.
	HomEquivalent = hom.Equivalent
	// Core computes the core of a pointed instance.
	Core = hom.Core
	// ArcConsistent runs the arc-consistency procedure of Prop 4.7.
	ArcConsistent = hom.ArcConsistent
	// Simulates tests e1 ⪯ e2 (Section 5 simulations).
	Simulates = tree.Simulates
)

// Queries.
var (
	ParseCQ        = cq.Parse
	NewCQ          = cq.New
	CQFromExample  = cq.FromExample
	ParseUCQ       = ucqfit.Parse
	NewUCQ         = ucqfit.New
	IsTreeCQ       = tree.IsTreeCQ
	UnravelExample = tree.Unravel
)

// Frontiers and dualities.
var (
	// Frontier computes a frontier for a c-acyclic UNP pointed instance
	// (Def 3.21/3.22).
	Frontier = frontier.ForPointed
	// HasFrontier tests frontier existence (Thm 2.12).
	HasFrontier = frontier.HasFrontier
	// DualOf computes D with ({e}, D) a homomorphism duality
	// (Thm 2.16(2)), for c-acyclic e over binary schemas.
	DualOf = duality.DualOf
	// IsHomDuality decides the HomDual problem (Section 4).
	IsHomDuality = duality.IsHomDuality
	// SingleDualityExists runs the dismantling existence test
	// (Thm 3.30 sketch).
	SingleDualityExists = duality.SingleDualityExists
	// GHRV returns the path/tournament duality of Example 2.14.
	GHRV = duality.GHRV
)

// Labeled example collections.
var (
	NewExamples          = fitting.NewExamples
	DefinabilityExamples = fitting.DefinabilityExamples
)

// CQ fitting (Section 3).
var (
	VerifyFitting           = fitting.Verify
	FittingExists           = fitting.Exists
	ConstructFitting        = fitting.Construct
	VerifyMostSpecific      = fitting.VerifyMostSpecific
	ConstructMostSpecific   = fitting.ConstructMostSpecific
	VerifyWeaklyMostGeneral = fitting.VerifyWeaklyMostGeneral
	SearchWeaklyMostGeneral = fitting.SearchWeaklyMostGeneral
	// ForEachWeaklyMostGeneral streams every weakly most-general fitting
	// CQ within the bounds as it is found, deduplicated incrementally.
	ForEachWeaklyMostGeneral = fitting.ForEachWeaklyMostGeneral
	AllWeaklyMostGeneral     = fitting.AllWeaklyMostGeneral
	VerifyBasis              = fitting.VerifyBasis
	SearchBasis              = fitting.SearchBasis
	VerifyUnique             = fitting.VerifyUnique
	UniqueFittingExists      = fitting.ExistsUnique
	DefaultSearch            = fitting.DefaultSearch
)

// UCQ fitting (Section 4).
var (
	VerifyFittingUCQ      = ucqfit.Verify
	FittingUCQExists      = ucqfit.Exists
	ConstructFittingUCQ   = ucqfit.Construct
	VerifyMostSpecificUCQ = ucqfit.VerifyMostSpecific
	VerifyMostGeneralUCQ  = ucqfit.VerifyMostGeneral
	MostGeneralUCQExists  = ucqfit.ExistsMostGeneral
	SearchMostGeneralUCQ  = ucqfit.SearchMostGeneral
	// ForEachMostGeneralUCQCandidate streams the candidate disjuncts of
	// the bounded most-general UCQ search as the enumeration reaches
	// them; CombineMostGeneralUCQ finishes the search over the collected
	// candidates.
	ForEachMostGeneralUCQCandidate = ucqfit.ForEachMostGeneralCandidate
	CombineMostGeneralUCQ          = ucqfit.CombineMostGeneral
	VerifyUniqueUCQ                = ucqfit.VerifyUnique
	UniqueUCQExists                = ucqfit.ExistsUnique
)

// The fitting engine: batched, concurrent, memoized execution of all of
// the above.
type (
	// Engine schedules fitting jobs across a bounded worker pool with a
	// shared memoization cache.
	Engine = engine.Engine
	// EngineOptions configures NewEngine.
	EngineOptions = engine.Options
	// EngineStats is a snapshot of queue depth, cache hit rates and
	// per-task latency.
	EngineStats = engine.Stats
	// Job is one fitting problem (kind × task over labeled examples).
	Job = engine.Job
	// JobSpec is the text-level form of a Job (also the cqfitd wire
	// format).
	JobSpec = engine.JobSpec
	// Result is the outcome of a Job.
	Result = engine.Result
	// JobKind selects the query language of a Job.
	JobKind = engine.Kind
	// JobTask selects the fitting problem of a Job.
	JobTask = engine.Task
	// Stream is a handle to a streaming job submission
	// (Engine.SubmitStream / Engine.DoStream): each enumerated answer is
	// delivered on Stream.Answers the moment the solver verifies it, and
	// Stream.Wait returns the terminal summary.
	Stream = engine.Stream
	// StreamAnswer is one enumerated answer frame of a Stream.
	StreamAnswer = engine.Answer
	// TraceReport is the solver explain report of a traced job
	// (Job.Trace / JobSpec.Trace): per-phase durations, search-progress
	// counters and the slowest spans. Carried on Result.Trace.
	TraceReport = obs.Report
	// TracePhaseStat is one phase row of a TraceReport.
	TracePhaseStat = obs.PhaseStat
)

// Job kinds and tasks.
const (
	KindCQ   = engine.KindCQ
	KindUCQ  = engine.KindUCQ
	KindTree = engine.KindTree

	TaskExists            = engine.TaskExists
	TaskConstruct         = engine.TaskConstruct
	TaskMostSpecific      = engine.TaskMostSpecific
	TaskWeaklyMostGeneral = engine.TaskWeaklyMostGeneral
	TaskBasis             = engine.TaskBasis
	TaskUnique            = engine.TaskUnique
	TaskVerify            = engine.TaskVerify
)

// Engine construction and helpers.
var (
	// NewEngine starts a fitting engine; Close it when done.
	NewEngine = engine.New
	// ParseJobSchema parses "R/2,P/1"-style schema declarations.
	ParseJobSchema = engine.ParseSchema
	// ErrEngineClosed is reported by jobs submitted to a closed engine.
	ErrEngineClosed = engine.ErrClosed
	// ErrQueueFull is reported by Engine.TrySubmit-based admission
	// control when the job queue has no room.
	ErrQueueFull = engine.ErrQueueFull
)

// The persistent result store: an append-only, CRC-checked segment log
// of completed results keyed by job fingerprint. Attach one via
// EngineOptions.Store and answers survive process restarts — a cold
// engine serves previously-computed fingerprints from disk without
// running a solver.
type (
	// Store is a persistent fingerprint-keyed result store; open with
	// OpenStore, attach via EngineOptions.Store, Close only after the
	// engine using it has been closed.
	Store = store.Store
	// StoreOptions configures OpenStore (size budget, segment size).
	StoreOptions = store.Options
	// StoreStats is a snapshot of store activity and on-disk size.
	StoreStats = store.Stats
)

var (
	// OpenStore opens (creating if needed) a result store directory,
	// recovering torn or corrupt segment tails by truncation.
	OpenStore = store.Open
	// ErrStoreClosed is reported by operations on a closed store.
	ErrStoreClosed = store.ErrClosed
)

// Tree-CQ fitting (Section 5).
var (
	VerifyFittingTree           = tree.Verify
	FittingTreeExists           = tree.Exists
	ConstructFittingTree        = tree.Construct
	VerifyMostSpecificTree      = tree.VerifyMostSpecific
	MostSpecificTreeExists      = tree.ExistsMostSpecific
	ConstructMostSpecificTree   = tree.ConstructMostSpecific
	VerifyWeaklyMostGeneralTree = tree.VerifyWeaklyMostGeneral
	SearchWeaklyMostGeneralTree = tree.SearchWeaklyMostGeneral
	// ForEachWeaklyMostGeneralTree streams every weakly most-general
	// fitting tree CQ within the bounds as it is found.
	ForEachWeaklyMostGeneralTree = tree.ForEachWeaklyMostGeneral
	AllWeaklyMostGeneralTree     = tree.AllWeaklyMostGeneral
	VerifyUniqueTree             = tree.VerifyUnique
	UniqueTreeExists             = tree.ExistsUnique
	VerifyBasisTree              = tree.VerifyBasis
	SearchBasisTree              = tree.SearchBasis
)
