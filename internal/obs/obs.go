// Package obs provides a context-carried, allocation-light trace
// recorder for solver jobs: phase spans with exclusive-time (self)
// attribution and progress counters for the backtracking searches.
//
// The recorder follows the same ctx-threading pattern as the solver
// caches (hom.WithCache): entry points pull it out of the context with
// FromContext and report into it through nil-safe methods, so a job
// without tracing pays only a context lookup and a nil check — no
// allocations, no locked sections.
//
// Spans nest strictly (the solver stack runs one goroutine per job), so
// the recorder keeps a LIFO frame stack and attributes to each phase
// both its total (inclusive) and self (exclusive) time. The self times
// of all phases sum to the root span's duration, which is what makes
// the per-phase breakdown of an explain report add up to the job's wall
// time.
package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies a solver phase that spans are recorded under.
type Phase uint8

const (
	// PhaseSolve is the root span wrapped around an entire job.
	PhaseSolve Phase = iota
	// PhaseHomSearch covers one uncached homomorphism search.
	PhaseHomSearch
	// PhaseCore covers one uncached core retraction loop.
	PhaseCore
	// PhaseProduct covers one uncached direct-product construction.
	PhaseProduct
	// PhaseSim covers one simulation fixpoint computation.
	PhaseSim
	// PhaseFrontier covers one frontier construction.
	PhaseFrontier
	// PhaseEnum covers one candidate-enumeration loop (weakly most
	// general searches, UCQ disjunct enumeration, tree search).
	PhaseEnum
	// PhaseHypergraphDecompose covers one structure probe of a hom
	// search's source: GYO reduction over its compiled form on first
	// probe, a load of the memoized verdict after.
	PhaseHypergraphDecompose
	// PhaseSemijoin covers one Yannakakis semi-join evaluation over a
	// join forest (the acyclic hom-search fast path).
	PhaseSemijoin

	numPhases
)

var phaseNames = [numPhases]string{
	PhaseSolve:               "solve",
	PhaseHomSearch:           "hom_search",
	PhaseCore:                "core",
	PhaseProduct:             "product",
	PhaseSim:                 "sim",
	PhaseFrontier:            "frontier",
	PhaseEnum:                "enum",
	PhaseHypergraphDecompose: "hypergraph_decompose",
	PhaseSemijoin:            "semijoin",
}

// String returns the stable snake_case name used in reports and metric
// labels.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Phases lists all phases in declaration order (metric registration).
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Counter identifies a progress counter.
type Counter uint8

const (
	// CtrHomSearches counts uncached homomorphism searches started.
	CtrHomSearches Counter = iota
	// CtrHomNodes counts nodes expanded by the backtracking search.
	CtrHomNodes
	// CtrHomBacktracks counts exhausted candidate loops (dead ends).
	CtrHomBacktracks
	// CtrHomPrunings counts candidate values removed by GAC propagation.
	// On a node whose propagation survives it is the size of the
	// narrowing to the (unique) arc-consistent fixpoint; on a node that
	// wipes out a domain, propagation stops at the first empty domain, so
	// the count depends on the order facts were revised in and may differ
	// between propagators that agree on every verdict, node and backtrack.
	CtrHomPrunings
	// CtrCoreRetractions counts successful retractions during coring.
	CtrCoreRetractions
	// CtrProductFacts counts facts materialized by product constructions.
	CtrProductFacts
	// CtrSimRounds counts simulation fixpoint refinement rounds.
	CtrSimRounds
	// CtrEnumCandidates counts candidate examples visited by the
	// enumeration loops.
	CtrEnumCandidates
	// Memo traffic per class, observed at the engine's memo layer.
	CtrMemoHomHits
	CtrMemoHomMisses
	CtrMemoCoreHits
	CtrMemoCoreMisses
	CtrMemoProductHits
	CtrMemoProductMisses
	// Spill fault-ins per class: entries this job pulled back from the
	// persistent store into the in-memory memo.
	CtrFaultHom
	CtrFaultCore
	CtrFaultProduct
	// Hom-search dispatch decisions: jointree is the acyclic fast path,
	// cutset the search that branches on a cycle cutset and finishes
	// each leaf with the join tree, backtrack the generic GAC search
	// (forced, or a cyclic source whose cut is too large).
	CtrDispatchJoinTree
	CtrDispatchBacktrack
	CtrDispatchCutset
	// CtrJoinTreeNodes counts join-forest nodes (hyperedges) evaluated
	// by the semi-join fast path.
	CtrJoinTreeNodes
	// CtrSemijoinReductions counts candidate tuples removed by the
	// bottom-up and top-down semi-join passes.
	CtrSemijoinReductions
	// CtrCutsetLeaves counts the join-tree passes cutset searches ran,
	// one per assignment of the cut that survived propagation.
	CtrCutsetLeaves
	// CtrHallRefutations counts the searches refuted at the root by
	// Hall's condition on a clique of must-differ variables, before any
	// branch.
	CtrHallRefutations
	// CtrHomInferred counts the hom verdicts a compiled candidate
	// universe's order settled by composition, with no memo lookup and
	// no search.
	CtrHomInferred

	numCounters
)

var counterNames = [numCounters]string{
	CtrHomSearches:        "hom_searches",
	CtrHomNodes:           "hom_nodes",
	CtrHomBacktracks:      "hom_backtracks",
	CtrHomPrunings:        "hom_prunings",
	CtrCoreRetractions:    "core_retractions",
	CtrProductFacts:       "product_facts",
	CtrSimRounds:          "sim_rounds",
	CtrEnumCandidates:     "enum_candidates",
	CtrMemoHomHits:        "memo_hom_hits",
	CtrMemoHomMisses:      "memo_hom_misses",
	CtrMemoCoreHits:       "memo_core_hits",
	CtrMemoCoreMisses:     "memo_core_misses",
	CtrMemoProductHits:    "memo_product_hits",
	CtrMemoProductMisses:  "memo_product_misses",
	CtrFaultHom:           "fault_hom",
	CtrFaultCore:          "fault_core",
	CtrFaultProduct:       "fault_product",
	CtrDispatchJoinTree:   "dispatch_jointree",
	CtrDispatchBacktrack:  "dispatch_backtrack",
	CtrDispatchCutset:     "dispatch_cutset",
	CtrJoinTreeNodes:      "jointree_nodes",
	CtrSemijoinReductions: "semijoin_reductions",
	CtrCutsetLeaves:       "cutset_leaves",
	CtrHallRefutations:    "hall_refutations",
	CtrHomInferred:        "hom_inferred",
}

// String returns the stable snake_case name used in reports.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// maxSlowest bounds the deepest-span table kept per recorder.
const maxSlowest = 8

// frame is one open span on the recorder's LIFO stack.
type frame struct {
	phase Phase
	start time.Time
	child time.Duration // time already attributed to nested spans
}

// phaseAgg accumulates closed spans of one phase.
type phaseAgg struct {
	count    int64
	self     time.Duration // exclusive time (child spans subtracted)
	total    time.Duration // inclusive time
	max      time.Duration // largest single inclusive span
	maxDepth int           // deepest nesting observed
}

// Recorder collects spans and counters for one traced job. All methods
// are safe on a nil receiver (no-ops) and safe for concurrent use —
// counters are atomics and the span stack is mutex-guarded, so a
// partial report can be snapshotted while an abandoned solver goroutine
// is still running.
type Recorder struct {
	counters [numCounters]atomic.Int64

	mu      sync.Mutex
	stack   []frame
	agg     [numPhases]phaseAgg
	slowest []SpanInfo // top self-time spans, root excluded, sorted desc
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add increments a counter; nil-safe and allocation-free.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// Count returns a counter's current value; nil-safe.
func (r *Recorder) Count(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// Span is a handle to an open span. The zero Span (from a nil recorder)
// is inert: End is a no-op.
type Span struct {
	r   *Recorder
	idx int // stack index of our frame; End pops down to it
}

// StartSpan opens a span for the phase. Close it with End (typically
// deferred — deferred Ends also run during a cancellation unwind, so
// spans close even when solve.Check panics the stack away).
func (r *Recorder) StartSpan(p Phase) Span {
	if r == nil {
		return Span{}
	}
	r.mu.Lock()
	idx := len(r.stack)
	r.stack = append(r.stack, frame{phase: p, start: time.Now()})
	r.mu.Unlock()
	return Span{r: r, idx: idx}
}

// End closes the span, attributing its duration to the phase aggregate
// and its inclusive time to the parent frame. Any frames opened above
// this one that were not explicitly ended (defensive; should not happen
// with deferred Ends) are closed first.
func (s Span) End() {
	if s.r == nil {
		return
	}
	now := time.Now()
	r := s.r
	r.mu.Lock()
	for len(r.stack) > s.idx {
		r.popLocked(now)
	}
	r.mu.Unlock()
}

// popLocked closes the top frame at time now. Callers hold r.mu.
func (r *Recorder) popLocked(now time.Time) {
	top := len(r.stack) - 1
	f := r.stack[top]
	r.stack = r.stack[:top]
	elapsed := now.Sub(f.start)
	if elapsed < 0 {
		elapsed = 0
	}
	self := elapsed - f.child
	if self < 0 {
		self = 0
	}
	depth := top // root is depth 0
	a := &r.agg[f.phase]
	a.count++
	a.self += self
	a.total += elapsed
	if elapsed > a.max {
		a.max = elapsed
	}
	if depth > a.maxDepth {
		a.maxDepth = depth
	}
	if top > 0 {
		r.stack[top-1].child += elapsed
	}
	if f.phase != PhaseSolve {
		r.noteSlowestLocked(SpanInfo{Phase: f.phase.String(), Depth: depth, MS: ms(self)})
	}
}

// noteSlowestLocked keeps the top-maxSlowest spans by self time.
func (r *Recorder) noteSlowestLocked(s SpanInfo) {
	if len(r.slowest) < maxSlowest {
		r.slowest = append(r.slowest, s)
	} else if s.MS > r.slowest[len(r.slowest)-1].MS {
		r.slowest[len(r.slowest)-1] = s
	} else {
		return
	}
	sort.SliceStable(r.slowest, func(i, j int) bool { return r.slowest[i].MS > r.slowest[j].MS })
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

// PhaseStat is one row of an explain report's phase table.
type PhaseStat struct {
	Phase    string  `json:"phase"`
	Count    int64   `json:"count"`
	SelfMS   float64 `json:"self_ms"`
	TotalMS  float64 `json:"total_ms"`
	MaxMS    float64 `json:"max_ms"`
	MaxDepth int     `json:"max_depth"`
}

// SpanInfo is one row of the deepest-span table: a single closed span
// identified by phase and nesting depth, weighted by self time.
type SpanInfo struct {
	Phase string  `json:"phase"`
	Depth int     `json:"depth"`
	MS    float64 `json:"ms"`
}

// Report is the structured explain report for one job.
type Report struct {
	// TotalMS is the root span's wall time (or elapsed-so-far when
	// Partial).
	TotalMS float64 `json:"total_ms"`
	// Shared marks a report inherited from a deduplicated flight's
	// leader rather than recorded for this job itself.
	Shared bool `json:"shared,omitempty"`
	// StoreHit marks a job answered from the persistent result store:
	// no solver ran, so the report has no solver phases.
	StoreHit bool `json:"store_hit,omitempty"`
	// Partial marks a snapshot taken while spans were still open
	// (canceled or abandoned job).
	Partial bool `json:"partial,omitempty"`
	// Phases lists per-phase aggregates, root first, then by self time.
	Phases []PhaseStat `json:"phases"`
	// Counters maps counter names to totals; zero counters are omitted.
	Counters map[string]int64 `json:"counters,omitempty"`
	// SlowestSpans lists the individual non-root spans with the largest
	// self times.
	SlowestSpans []SpanInfo `json:"slowest_spans,omitempty"`
}

// Report snapshots the recorder into a report. Safe to call while the
// job is still running (the snapshot is marked Partial if spans are
// open); returns an empty non-nil report on a nil recorder.
func (r *Recorder) Report() *Report {
	rep := &Report{}
	if r == nil {
		return rep
	}
	now := time.Now()
	r.mu.Lock()
	if len(r.stack) > 0 {
		rep.Partial = true
		rep.TotalMS = ms(now.Sub(r.stack[0].start))
	} else {
		rep.TotalMS = ms(r.agg[PhaseSolve].total)
	}
	for p := Phase(0); p < numPhases; p++ {
		a := r.agg[p]
		if a.count == 0 {
			continue
		}
		rep.Phases = append(rep.Phases, PhaseStat{
			Phase:    p.String(),
			Count:    a.count,
			SelfMS:   ms(a.self),
			TotalMS:  ms(a.total),
			MaxMS:    ms(a.max),
			MaxDepth: a.maxDepth,
		})
	}
	if len(r.slowest) > 0 {
		rep.SlowestSpans = append([]SpanInfo(nil), r.slowest...)
	}
	r.mu.Unlock()
	// Root (solve) first, then by self time descending.
	sort.SliceStable(rep.Phases, func(i, j int) bool {
		if (rep.Phases[i].Phase == "solve") != (rep.Phases[j].Phase == "solve") {
			return rep.Phases[i].Phase == "solve"
		}
		return rep.Phases[i].SelfMS > rep.Phases[j].SelfMS
	})
	for c := Counter(0); c < numCounters; c++ {
		if v := r.counters[c].Load(); v != 0 {
			if rep.Counters == nil {
				rep.Counters = make(map[string]int64)
			}
			rep.Counters[c.String()] = v
		}
	}
	return rep
}

// PhaseTotals returns the inclusive duration recorded per phase name
// (metrics feed). Nil-safe.
func (r *Recorder) PhaseTotals() map[string]time.Duration {
	if r == nil {
		return nil
	}
	out := make(map[string]time.Duration, numPhases)
	r.mu.Lock()
	for p := Phase(0); p < numPhases; p++ {
		if a := r.agg[p]; a.count > 0 {
			out[p.String()] = a.total
		}
	}
	r.mu.Unlock()
	return out
}

// Clone deep-copies a report (flight followers receive a copy so later
// mutation of flags cannot race). Nil in, nil out.
func (rep *Report) Clone() *Report {
	if rep == nil {
		return nil
	}
	out := *rep
	out.Phases = append([]PhaseStat(nil), rep.Phases...)
	out.SlowestSpans = append([]SpanInfo(nil), rep.SlowestSpans...)
	if rep.Counters != nil {
		out.Counters = make(map[string]int64, len(rep.Counters))
		for k, v := range rep.Counters {
			out.Counters[k] = v
		}
	}
	return &out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---------------------------------------------------------------------
// Context plumbing
// ---------------------------------------------------------------------

// recorderKey is the context key under which a Recorder travels. Like
// the solver caches, the recorder is per-context (per job), never
// process-wide.
type recorderKey struct{}

// WithRecorder returns a context carrying r; the solver entry points
// consult it via FromContext. A nil r returns ctx unchanged.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey{}, r)
}

// FromContext extracts the recorder carried by ctx, or nil. The nil
// path — every untraced job — performs no allocations.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}
