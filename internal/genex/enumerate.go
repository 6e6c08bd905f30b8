package genex

import (
	"context"
	"fmt"
	"math"
	"sort"

	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
	"extremalcq/internal/solve"
)

// EnumerateInstances enumerates non-empty instances over sch with at
// most maxFacts facts and at most maxVars values, in non-decreasing
// fact-count order, calling yield for each until it returns false.
//
// Values are drawn from a fixed pool v0, v1, ... and instances are
// generated in a canonical form: facts are added in a fixed total order
// and fresh values are introduced in first-occurrence order. Every
// isomorphism class with the given bounds is produced at least once
// (canonical relabelings are reachable by construction); occasional
// duplicates across classes are possible and harmless for search uses.
func EnumerateInstances(sch *schema.Schema, maxFacts, maxVars int, yield func(*instance.Instance) bool) {
	EnumerateInstancesCtx(context.Background(), sch, maxFacts, maxVars, yield)
}

// TableSize is the number of candidate facts EnumerateInstancesCtx
// builds and sorts before it yields anything: Σ_r maxVars^arity(r), or
// 0 when a bound is non-positive. It saturates at math.MaxInt instead
// of overflowing, so callers can bound a request before paying for it.
func TableSize(sch *schema.Schema, maxFacts, maxVars int) int {
	if maxFacts <= 0 || maxVars <= 0 {
		return 0
	}
	total := 0
	for _, r := range sch.Relations() {
		// One value gives one fact at any arity; two or more saturate
		// within 63 factors, so a huge arity costs no time here.
		n := 1
		if maxVars > 1 {
			for i := 0; i < r.Arity; i++ {
				if n > math.MaxInt/maxVars {
					return math.MaxInt
				}
				n *= maxVars
			}
		}
		if total > math.MaxInt-n {
			return math.MaxInt
		}
		total += n
	}
	return total
}

// EnumerateInstancesCtx is EnumerateInstances under a solver context.
// The candidate space is exponential in the bounds and pruned branches
// never reach yield, so cancellation is checked at the worklist itself,
// not only per emitted instance. A non-positive bound selects the empty
// candidate space: this is the one place the searches' "negative bound
// disables enumeration" contract is enforced.
func EnumerateInstancesCtx(ctx context.Context, sch *schema.Schema, maxFacts, maxVars int, yield func(*instance.Instance) bool) {
	if maxFacts <= 0 || maxVars <= 0 {
		return
	}
	pool := make([]instance.Value, maxVars)
	for i := range pool {
		pool[i] = instance.Value(fmt.Sprintf("v%d", i))
	}
	// All possible facts over the pool, sorted by key; fact index i may
	// follow fact index j in an instance only if i > j.
	var all []instance.Fact
	for _, r := range sch.Relations() {
		args := make([]instance.Value, r.Arity)
		var rec func(pos int)
		rec = func(pos int) {
			if pos == r.Arity {
				all = append(all, instance.NewFact(r.Name, args...))
				return
			}
			for _, v := range pool {
				args[pos] = v
				rec(pos + 1)
			}
		}
		rec(0)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key() < all[j].Key() })

	varIndex := func(v instance.Value) int {
		var i int
		fmt.Sscanf(string(v), "v%d", &i)
		return i
	}
	// introducesInOrder checks the canonical-labeling discipline: any
	// value with index > maxUsed appearing in f must appear in increasing
	// order maxUsed+1, maxUsed+2, ... by first occurrence.
	introducesInOrder := func(f instance.Fact, maxUsed int) (int, bool) {
		next := maxUsed + 1
		for _, a := range f.Args {
			i := varIndex(a)
			if i <= maxUsed {
				continue
			}
			if i == next {
				next++
				maxUsed = i
				continue
			}
			if i < next {
				continue // re-occurrence of a var introduced earlier in this fact
			}
			return 0, false
		}
		return next - 1, true
	}

	type state struct {
		facts   []instance.Fact
		lastIdx int
		maxUsed int
	}
	// Iterative deepening by fact count keeps the output ordered by size.
	for size := 1; size <= maxFacts; size++ {
		stack := []state{{lastIdx: -1, maxUsed: -1}}
		for len(stack) > 0 {
			solve.Check(ctx)
			st := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(st.facts) == size {
				in := instance.New(sch)
				for _, f := range st.facts {
					if err := in.AddFact(f.Rel, f.Args...); err != nil {
						panic(err)
					}
				}
				if !yield(in) {
					return
				}
				continue
			}
			for i := st.lastIdx + 1; i < len(all); i++ {
				mu, ok := introducesInOrder(all[i], st.maxUsed)
				if !ok {
					continue
				}
				if mu < st.maxUsed {
					mu = st.maxUsed
				}
				next := state{
					facts:   append(append([]instance.Fact(nil), st.facts...), all[i]),
					lastIdx: i,
					maxUsed: mu,
				}
				stack = append(stack, next)
			}
		}
	}
}

// EnumerateDataExamples enumerates k-ary data examples built from
// EnumerateInstances with every tuple of distinct values from the active
// domain (the unique names property is required by the frontier-based
// verifiers downstream).
func EnumerateDataExamples(sch *schema.Schema, k, maxFacts, maxVars int, yield func(instance.Pointed) bool) {
	EnumerateDataExamplesCtx(context.Background(), sch, k, maxFacts, maxVars, yield)
}

// EnumerateDataExamplesCtx is EnumerateDataExamples under a solver
// context (see EnumerateInstancesCtx).
func EnumerateDataExamplesCtx(ctx context.Context, sch *schema.Schema, k, maxFacts, maxVars int, yield func(instance.Pointed) bool) {
	EnumerateInstancesCtx(ctx, sch, maxFacts, maxVars, func(in *instance.Instance) bool {
		dom := in.Dom()
		if len(dom) < k {
			return true
		}
		tuple := make([]instance.Value, k)
		var rec func(pos int, used map[instance.Value]bool) bool
		rec = func(pos int, used map[instance.Value]bool) bool {
			if pos == k {
				return yield(instance.NewPointed(in, tuple...))
			}
			for _, v := range dom {
				if used[v] {
					continue
				}
				used[v] = true
				tuple[pos] = v
				if !rec(pos+1, used) {
					return false
				}
				delete(used, v)
			}
			return true
		}
		return rec(0, map[instance.Value]bool{})
	})
}
