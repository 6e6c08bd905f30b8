// Package frontier implements frontiers in the homomorphism pre-order
// (Section 2.2) via the polynomial-time construction of Definitions
// 3.21/3.22 (originating in [11]): for a c-acyclic core CQ q with the
// unique names property, the set F_q = {F_1(q),...,F_m(q)} — one member
// per connected component, obtained by the replica construction — is a
// frontier for q.
//
// Frontier members are returned as pointed instances because they are
// "possibly-unsafe CQs": an answer variable may occur in no fact
// (footnote 3 of the paper). All uses in the fitting algorithms
// (Prop 3.11) work directly with pointed instances, so no information is
// lost.
package frontier

import (
	"context"
	"errors"
	"fmt"

	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/solve"
)

// ErrNotCAcyclic is returned when the core of the input is not c-acyclic;
// by Theorem 2.12 no frontier exists in that case.
var ErrNotCAcyclic = errors.New("frontier: core is not c-acyclic, no frontier exists (Theorem 2.12)")

// ErrNoUNP is returned for inputs with repeated distinguished elements.
// The replica construction of Def 3.21 requires the unique names
// property; the extension to arbitrary equality types is given only in
// the paper's Appendix A (not part of the provided text), so we report
// the limitation instead of guessing.
var ErrNoUNP = errors.New("frontier: input has repeated distinguished elements (no UNP); construction not supported")

// ForPointed returns a frontier for e with respect to the class of all
// CQs / all data examples. The input is replaced by its core first
// (Prop 3.23 requires a core). Members are strictly below the core of e
// in the homomorphism pre-order and jointly separate it from everything
// strictly below.
func ForPointed(e instance.Pointed) ([]instance.Pointed, error) {
	return ForPointedCtx(context.Background(), e)
}

// ForPointedCtx is ForPointed under a solver context: the core
// computation is memoized through the cache carried by ctx and checks
// ctx for cancellation (see hom.CoreCtx).
func ForPointedCtx(ctx context.Context, e instance.Pointed) ([]instance.Pointed, error) {
	return ForCoreCtx(ctx, hom.CoreCtx(ctx, e))
}

// ForCoreCtx is ForPointedCtx for an input its caller has already
// cored: core must be a core (as returned by hom.CoreCtx), and is not
// cored again. Re-coring a core is never a memo hit (the memo keys a
// core by its source instance, not by itself) and runs one failing
// retraction search per non-distinguished element.
func ForCoreCtx(ctx context.Context, core instance.Pointed) ([]instance.Pointed, error) {
	sp := obs.FromContext(ctx).StartSpan(obs.PhaseFrontier)
	defer sp.End()
	if !core.HasUNP() {
		return nil, ErrNoUNP
	}
	if !instance.CAcyclic(core) {
		return nil, ErrNotCAcyclic
	}
	comps := instance.Components(core)
	members := make([]instance.Pointed, 0, len(comps))
	for i := range comps {
		members = append(members, applyF(ctx, core, comps, i))
	}
	return members, nil
}

// applyF builds F_i(core): the facts of every component j != i are kept,
// together with every variant in which occurrences of answer variables x
// are replaced by the replica u_x; the facts of component i are replaced
// by their acceptable instances (Def 3.21).
//
// The u_x-variants of the intact components are required for the
// separation property. Consider q(x) :- R(z,x) ∧ R(x,w) (two components).
// Weakening the out-edge component must yield
// {R(z,x), R(z,u_x), R(u_x,w')}: an instance strictly below q may contain
// an element b that has an incoming R-edge from a witness which also
// continues to an out-edge elsewhere; b's predecessor must then map to z
// while its continuation maps through u_x, which requires R(z,u_x). The
// variants keep soundness because they only ever *remove* the weakened
// component's pattern at x itself.
//
// The construction emits up to 2^arity facts for one fact, so it checks
// ctx before each fact it emits: a deadline stops it mid-fact.
func applyF(ctx context.Context, core instance.Pointed, comps []instance.Pointed, i int) instance.Pointed {
	answer := make(map[instance.Value]bool, len(core.Tuple))
	for _, x := range core.Tuple {
		answer[x] = true
	}
	namer := newReplicaNamer(core)

	out := instance.New(core.I.Schema())
	for j, comp := range comps {
		if j == i {
			continue
		}
		for _, f := range comp.I.Facts() {
			addAnswerVariants(ctx, out, f, answer, namer)
		}
	}

	target := comps[i]
	facts := target.I.Facts()
	for fi, f := range facts {
		// Replica choice sets per position.
		options := make([][]replica, len(f.Args))
		for pos, z := range f.Args {
			options[pos] = replicasOf(z, fi, facts, answer, namer)
		}
		// Enumerate combinations; keep those with a qualifying position.
		combo := make([]replica, len(f.Args))
		var rec func(pos int)
		rec = func(pos int) {
			if pos == len(f.Args) {
				solve.Check(ctx)
				if hasQualifier(combo) {
					args := make([]instance.Value, len(combo))
					for p, r := range combo {
						args[p] = r.name
					}
					mustAdd(out, instance.Fact{Rel: f.Rel, Args: args})
				}
				return
			}
			for _, r := range options[pos] {
				combo[pos] = r
				rec(pos + 1)
			}
		}
		rec(0)
	}
	return instance.NewPointed(out, core.Tuple...)
}

// replica is a replica variable together with whether using it qualifies
// the acceptable-instance condition at its position.
type replica struct {
	name      instance.Value
	qualifies bool
}

// replicasOf returns the replicas of variable z as allowed in an
// acceptable instance of fact index fi:
//   - answer variable x: x itself (not qualifying) and u_x (qualifying);
//   - existential variable y: u_{y,f'} for every fact f' containing y,
//     qualifying iff f' is not the fact being instantiated.
func replicasOf(z instance.Value, fi int, facts []instance.Fact, answer map[instance.Value]bool, namer *replicaNamer) []replica {
	if answer[z] {
		return []replica{
			{name: z, qualifies: false},
			{name: namer.answerReplica(z), qualifies: true},
		}
	}
	var out []replica
	for fj, g := range facts {
		if g.Contains(z) {
			out = append(out, replica{
				name:      namer.factReplica(z, fj),
				qualifies: fj != fi,
			})
		}
	}
	return out
}

func hasQualifier(combo []replica) bool {
	for _, r := range combo {
		if r.qualifies {
			return true
		}
	}
	return false
}

// replicaNamer generates fresh replica names avoiding the core's values.
type replicaNamer struct {
	taken map[instance.Value]bool
	memo  map[string]instance.Value
}

func newReplicaNamer(core instance.Pointed) *replicaNamer {
	taken := make(map[instance.Value]bool)
	for _, v := range core.I.Dom() {
		taken[v] = true
	}
	for _, v := range core.Tuple {
		taken[v] = true
	}
	return &replicaNamer{taken: taken, memo: make(map[string]instance.Value)}
}

func (n *replicaNamer) fresh(key, base string) instance.Value {
	if v, ok := n.memo[key]; ok {
		return v
	}
	cand := instance.Value(base)
	//cqlint:ignore ctxloop -- terminates once cand outgrows the finite taken set (one tick per member)
	for n.taken[cand] {
		cand += "'"
	}
	n.taken[cand] = true
	n.memo[key] = cand
	return cand
}

func (n *replicaNamer) answerReplica(x instance.Value) instance.Value {
	return n.fresh("ans:"+string(x), "u_"+string(x))
}

func (n *replicaNamer) factReplica(y instance.Value, fj int) instance.Value {
	return n.fresh(fmt.Sprintf("fact:%s:%d", y, fj), fmt.Sprintf("u_%s_%d", y, fj))
}

// addAnswerVariants adds f together with every variant obtained by
// independently replacing occurrences of answer variables x by u_x,
// checking ctx before each variant it adds.
func addAnswerVariants(ctx context.Context, out *instance.Instance, f instance.Fact, answer map[instance.Value]bool, namer *replicaNamer) {
	args := make([]instance.Value, len(f.Args))
	var rec func(pos int)
	rec = func(pos int) {
		if pos == len(f.Args) {
			solve.Check(ctx)
			mustAdd(out, instance.Fact{Rel: f.Rel, Args: append([]instance.Value(nil), args...)})
			return
		}
		z := f.Args[pos]
		args[pos] = z
		rec(pos + 1)
		if answer[z] {
			args[pos] = namer.answerReplica(z)
			rec(pos + 1)
		}
	}
	rec(0)
}

func mustAdd(in *instance.Instance, f instance.Fact) {
	if err := in.AddFact(f.Rel, f.Args...); err != nil {
		panic(fmt.Sprintf("frontier: internal construction produced invalid fact %v: %v", f, err))
	}
}

// HasFrontier reports whether e has a frontier at all: by Theorem 2.12,
// iff the core of e is c-acyclic.
func HasFrontier(e instance.Pointed) bool {
	core := hom.Core(e)
	return instance.CAcyclic(core)
}
