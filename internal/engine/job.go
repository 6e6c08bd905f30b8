package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"extremalcq/internal/fitting"
	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/schema"
)

// Kind selects the query language of a fitting job.
type Kind string

// The query languages the facade exposes.
const (
	KindCQ   Kind = "cq"
	KindUCQ  Kind = "ucq"
	KindTree Kind = "tree"
)

// Task selects the fitting problem of a job.
type Task string

// The fitting problems the facade exposes.
const (
	TaskExists            Task = "exists"
	TaskConstruct         Task = "construct"
	TaskMostSpecific      Task = "most-specific"
	TaskWeaklyMostGeneral Task = "weakly-most-general"
	TaskBasis             Task = "basis"
	TaskUnique            Task = "unique"
	TaskVerify            Task = "verify"
)

func validKind(k Kind) bool {
	switch k {
	case KindCQ, KindUCQ, KindTree:
		return true
	}
	return false
}

func validTask(t Task) bool {
	switch t {
	case TaskExists, TaskConstruct, TaskMostSpecific, TaskWeaklyMostGeneral,
		TaskBasis, TaskUnique, TaskVerify:
		return true
	}
	return false
}

// Job is one fitting problem instance to be executed by the engine: a
// kind × task combination over a collection of labeled examples. For
// verify tasks Query holds the textual query to check (a CQ for kinds cq
// and tree, a UCQ for kind ucq).
type Job struct {
	// Label is an opaque caller identifier echoed into the Result.
	Label string
	Kind  Kind
	Task  Task
	// Examples is the labeled collection E = (E+, E-).
	Examples fitting.Examples
	// Query is the query text for TaskVerify, in the cq/ucq text format.
	Query string
	// Opts bounds the synthesis searches. A zero field selects the
	// corresponding fitting.DefaultSearch() bound; a negative field
	// disables candidate enumeration for that dimension (only canonical
	// candidates are considered).
	Opts fitting.SearchOpts
	// Timeout bounds this job's execution time; zero means no bound
	// beyond the submission context.
	Timeout time.Duration
	// Trace requests a solver trace: the Result carries an explain
	// report of phase durations and search counters. Trace does not
	// participate in the job fingerprint — a traced job and its
	// untraced twin are the same computation, so they coalesce in
	// single-flight dedup (the flight leader decides whether a recorder
	// exists; a traced follower receives the leader's report marked
	// Shared).
	Trace bool
}

// Validate reports whether the job names a known kind × task combination
// and carries a well-formed example collection.
func (j Job) Validate() error {
	if !validKind(j.Kind) {
		return fmt.Errorf("engine: unknown kind %q", j.Kind)
	}
	if !validTask(j.Task) {
		return fmt.Errorf("engine: unknown task %q", j.Task)
	}
	if j.Examples.Schema == nil {
		return fmt.Errorf("engine: job has no schema")
	}
	// MaxArity reads the schema in place; Relations copies it, and
	// every job passes here.
	if sch := j.Examples.Schema; sch.MaxArity() > maxArity {
		for _, r := range sch.Relations() {
			if r.Arity > maxArity {
				return fmt.Errorf("engine: relation %s has arity %d; at most %d is allowed", r.Name, r.Arity, maxArity)
			}
		}
	}
	if j.Task == TaskVerify && strings.TrimSpace(j.Query) == "" {
		return fmt.Errorf("engine: verify task needs a query")
	}
	if j.Task == TaskWeaklyMostGeneral || j.Task == TaskBasis {
		opts := j.searchOpts()
		if n := genex.TableSize(j.Examples.Schema, opts.MaxAtoms, opts.MaxVars); n > maxCandidateFacts {
			return fmt.Errorf("engine: max_vars %d needs a table of %d candidate facts over this schema; at most %d are allowed",
				opts.MaxVars, n, maxCandidateFacts)
		}
	}
	return nil
}

// maxArity bounds the arity of every relation a job's schema declares.
// The candidate enumeration recurses once per argument position, and at
// max_vars 1 a relation of any arity is a one-fact table that passes
// maxCandidateFacts, so without this bound one request could overflow
// the goroutine stack and kill the process. 1,024 is far above every
// shipped workload and test (at most 300) and far below the millions of
// positions an overflow takes. It does not bound work exponential in
// the arity: the frontier of one R(x,…,x) has 2^arity − 1 facts.
const maxArity = 1024

// maxCandidateFacts bounds the candidate fact table a weakly
// most-general or basis search builds before its first check (see
// genex.TableSize; ~0.8 KB a fact), so one request cannot exhaust
// memory. Every shipped workload and test stays under 100 facts.
const maxCandidateFacts = 4096

// searchOpts returns the job's search bounds with every zero field set
// to its fitting.DefaultSearch() value (see Opts).
func (j Job) searchOpts() fitting.SearchOpts {
	opts := j.Opts
	if opts.MaxAtoms == 0 {
		opts.MaxAtoms = fitting.DefaultSearch().MaxAtoms
	}
	if opts.MaxVars == 0 {
		opts.MaxVars = fitting.DefaultSearch().MaxVars
	}
	return opts
}

// firstOnly reports whether a one-shot run of j keeps only its first
// answer: the weakly most-general CQ and tree searches return one
// query, while their streams enumerate every answer. Every other job
// computes the same Result either way.
func (j Job) firstOnly() bool {
	return j.Task == TaskWeaklyMostGeneral && j.Kind != KindUCQ
}

// flightKey keys single-flight dedup: a canonical digest of everything
// that determines the job's outcome — kind, task, query text,
// normalized search bounds, timeout and the exact example contents —
// and nothing else (the label is presentation-only and Trace only adds
// reporting), plus the first-answer-only bit (see firstOnly). Jobs with
// equal keys are interchangeable: a one-shot search that stops at its
// first answer never shares a flight with its stream, while the
// one-shot and streamed twins of every other job do. The timeout
// participates so a job with a tight deadline never adopts the fate of
// a twin with a loose one, or vice versa.
func (j Job) flightKey(first bool) string { return j.digest(true, first) }

// FingerprintHex returns the job's canonical fingerprint, its flight
// key without the first-answer-only bit, as a hex string for log
// correlation (access lines, slow-job warnings).
func (j Job) FingerprintHex() string {
	return hex.EncodeToString([]byte(j.flightKey(false)))
}

// storeKey keys the persistent store: flightKey without the timeout.
// Only successful results reach the store, and a success is
// timeout-independent (the deadline decides whether an answer is
// computed, never which), so keying the store on the timeout would
// only fragment it: a job solved under -timeout 30s should warm-serve
// the same problem resubmitted under 60s.
func (j Job) storeKey(first bool) string { return j.digest(false, first) }

// digest hashes the job. The first-answer-only bit is hashed only when
// set, so every other job keeps the store key it had before the bit
// existed: a record in an older shape under it is found, counted as
// bad and overwritten, rather than left unread.
func (j Job) digest(withTimeout, first bool) string {
	h := sha256.New()
	ws := func(s string) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		io.WriteString(h, s)
	}
	wi := func(n int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	ws(string(j.Kind))
	ws(string(j.Task))
	ws(j.Query)
	// Zero bounds select the defaults, as at submission, so Opts{} and
	// DefaultSearch() coincide.
	opts := j.searchOpts()
	wi(int64(opts.MaxAtoms))
	wi(int64(opts.MaxVars))
	if withTimeout {
		wi(int64(j.Timeout))
	}
	wi(int64(j.Examples.Arity))
	for _, r := range j.Examples.Schema.Relations() {
		ws(r.Name)
		wi(int64(r.Arity))
	}
	for _, side := range [][]instance.Pointed{j.Examples.Pos, j.Examples.Neg} {
		wi(int64(len(side)))
		for _, ex := range side {
			ws(ex.Fingerprint())
		}
	}
	if first {
		wi(1)
	}
	return string(h.Sum(nil))
}

// Result is the outcome of one Job.
type Result struct {
	// Label echoes Job.Label.
	Label string
	Kind  Kind
	Task  Task
	// Found reports the task's boolean outcome: existence for exists
	// tasks, "fits" for verify tasks, and whether a query (or basis) was
	// produced for construction and search tasks.
	Found bool
	// Queries holds the rendered fitting queries: one entry for
	// construct/most-specific/weakly-most-general/unique, one per member
	// for basis, empty for exists/verify.
	Queries []string
	// Note carries auxiliary human-readable information (e.g. that a tree
	// fitting exists but is too large to expand).
	Note string
	// Err is non-nil when the job failed or was canceled.
	Err error
	// Elapsed is the execution wall time (zero for jobs aborted before
	// execution).
	Elapsed time.Duration
	// Trace is the explain report of a traced job (Job.Trace): phase
	// durations, search counters and the slowest spans. Nil when
	// tracing was off. Shared marks a report adopted from a
	// deduplicated flight's leader; StoreHit marks a persistent-store
	// answer (no solver phases). A run cut short by its deadline or by
	// Close reports what it did up to the unwind.
	Trace *obs.Report
}

// ---------------------------------------------------------------------
// Text-level job specifications
// ---------------------------------------------------------------------

// JobSpec is the text-level form of a Job, shared by the cqfit CLI and
// the cqfitd JSON service: schema, examples and query are strings in the
// package's text formats. The JSON field names define the cqfitd wire
// format.
type JobSpec struct {
	Label     string   `json:"label,omitempty"`
	Schema    string   `json:"schema"`
	Arity     int      `json:"arity"`
	Kind      string   `json:"kind"`
	Task      string   `json:"task"`
	Pos       []string `json:"pos,omitempty"`
	Neg       []string `json:"neg,omitempty"`
	Query     string   `json:"query,omitempty"`
	MaxAtoms  int      `json:"max_atoms,omitempty"`
	MaxVars   int      `json:"max_vars,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
	// Trace requests an explain report with the result (see Job.Trace);
	// cqfitd also sets it from the ?debug=trace query parameter.
	Trace bool `json:"trace,omitempty"`
}

// ParseSchema parses a comma-separated relation/arity declaration list
// such as "R/2,P/1".
func ParseSchema(s string) (*schema.Schema, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("engine: missing schema")
	}
	var rels []schema.Relation
	for _, part := range strings.Split(s, ",") {
		name, arityStr, ok := strings.Cut(strings.TrimSpace(part), "/")
		if !ok {
			return nil, fmt.Errorf("engine: bad schema entry %q (want Name/Arity)", part)
		}
		a, err := strconv.Atoi(arityStr)
		if err != nil {
			return nil, fmt.Errorf("engine: bad arity in %q: %w", part, err)
		}
		rels = append(rels, schema.Relation{Name: name, Arity: a})
	}
	return schema.New(rels...)
}

// Build parses the spec into an executable Job. Kind defaults to cq and
// task to construct. Zero (or omitted) search bounds select the
// fitting.DefaultSearch() bounds at execution time; negative bounds
// disable candidate enumeration (see Job.Opts).
func (s JobSpec) Build() (Job, error) {
	sch, err := ParseSchema(s.Schema)
	if err != nil {
		return Job{}, err
	}
	var pos, neg []instance.Pointed
	for _, t := range s.Pos {
		e, err := instance.ParsePointed(sch, t)
		if err != nil {
			return Job{}, fmt.Errorf("engine: pos example %q: %w", t, err)
		}
		pos = append(pos, e)
	}
	for _, t := range s.Neg {
		e, err := instance.ParsePointed(sch, t)
		if err != nil {
			return Job{}, fmt.Errorf("engine: neg example %q: %w", t, err)
		}
		neg = append(neg, e)
	}
	E, err := fitting.NewExamples(sch, s.Arity, pos, neg)
	if err != nil {
		return Job{}, err
	}
	kind, task := Kind(s.Kind), Task(s.Task)
	if s.Kind == "" {
		kind = KindCQ
	}
	if s.Task == "" {
		task = TaskConstruct
	}
	j := Job{
		Label:    s.Label,
		Kind:     kind,
		Task:     task,
		Examples: E,
		Query:    s.Query,
		Opts:     fitting.SearchOpts{MaxAtoms: s.MaxAtoms, MaxVars: s.MaxVars},
		Timeout:  time.Duration(s.TimeoutMS) * time.Millisecond,
		Trace:    s.Trace,
	}
	if err := j.Validate(); err != nil {
		return Job{}, err
	}
	return j, nil
}
