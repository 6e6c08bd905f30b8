// Package tree implements Section 5 of the paper: tree CQs (unary,
// Berge-acyclic, connected CQs over binary schemas), simulations,
// unravelings, and the fitting problems for tree CQs — arbitrary
// (Thm 5.9–5.11), most-specific via complete initial pieces
// (Prop 5.14/5.17, Thm 5.15/5.18), weakly most-general (Prop 5.22,
// Thm 5.23/5.24), unique (Thm 5.25) and bases of most-general fittings
// (Prop 5.27, Thm 5.28/5.32).
//
// Where the paper uses two-way alternating tree automata, this package
// uses the equivalent simulation fixpoints on the product of the
// positive examples (Lemma 5.5 is the bridge); see README,
// "Substitutions for the paper's automata", item 1.
package tree

import (
	"context"

	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/solve"
)

// simKey identifies a pair (a, b) in a simulation relation.
type simKey struct{ a, b instance.Value }

// Simulation is the greatest simulation between two instances.
type Simulation struct {
	pairs map[simKey]bool
}

// Has reports whether (a, b) is in the relation. Values outside the
// source's active domain simulate into anything (they impose no
// conditions).
func (s *Simulation) Has(a, b instance.Value, src *instance.Instance) bool {
	if !src.InDom(a) {
		return true
	}
	return s.pairs[simKey{a, b}]
}

// greatestSimulation computes the greatest simulation of I in J
// (Section 5's three conditions) by fixpoint refinement. Runs in
// polynomial time. Each refinement round checks ctx, so cancellation
// stops the fixpoint on large products promptly.
func greatestSimulation(ctx context.Context, src, dst *instance.Instance) *Simulation {
	rec := obs.FromContext(ctx)
	sp := rec.StartSpan(obs.PhaseSim)
	defer sp.End()
	s := &Simulation{pairs: make(map[simKey]bool)}
	srcDom, dstDom := src.Dom(), dst.Dom()

	// Initialize with unary compatibility.
	for _, a := range srcDom {
		for _, b := range dstDom {
			ok := true
			for _, f := range src.FactsContaining(a) {
				if len(f.Args) == 1 {
					if !dst.Has(instance.NewFact(f.Rel, b)) {
						ok = false
						break
					}
				}
			}
			if ok {
				s.pairs[simKey{a, b}] = true
			}
		}
	}

	// Refine: drop (a,b) when some binary fact at a has no matching
	// witness at b.
	changed := true
	for changed {
		solve.Check(ctx)
		rec.Add(obs.CtrSimRounds, 1)
		changed = false
		for k := range s.pairs {
			if !s.supported(k, src, dst) {
				delete(s.pairs, k)
				changed = true
			}
		}
	}
	return s
}

// supported checks conditions (2) and (3) of simulations for a pair.
func (s *Simulation) supported(k simKey, src, dst *instance.Instance) bool {
	for _, f := range src.FactsContaining(k.a) {
		if len(f.Args) != 2 {
			continue
		}
		// Forward: R(a, c) needs R(b, c') with (c, c') in S.
		if f.Args[0] == k.a {
			c := f.Args[1]
			if !s.hasWitness(dst.FactsWith(f.Rel, 0, k.b), 1, c) {
				return false
			}
		}
		// Backward: R(c, a) needs R(c', b) with (c, c') in S.
		if f.Args[1] == k.a {
			c := f.Args[0]
			if !s.hasWitness(dst.FactsWith(f.Rel, 1, k.b), 0, c) {
				return false
			}
		}
	}
	return true
}

func (s *Simulation) hasWitness(facts []instance.Fact, pos int, c instance.Value) bool {
	for _, g := range facts {
		if s.pairs[simKey{c, g.Args[pos]}] {
			return true
		}
	}
	return false
}

// Simulates reports e1 ⪯ e2: there is a simulation relating the
// distinguished tuples pointwise. Schemas must match and be binary;
// arities must match.
func Simulates(e1, e2 instance.Pointed) bool {
	return SimulatesCtx(context.Background(), e1, e2)
}

// SimulatesCtx is Simulates under a solver context.
func SimulatesCtx(ctx context.Context, e1, e2 instance.Pointed) bool {
	if !e1.I.Schema().Equal(e2.I.Schema()) || e1.Arity() != e2.Arity() {
		return false
	}
	if !e1.I.Schema().Binary() {
		return false
	}
	gs := greatestSimulation(ctx, e1.I, e2.I)
	for i, a := range e1.Tuple {
		b := e2.Tuple[i]
		if !e1.I.InDom(a) {
			continue
		}
		if !e2.I.InDom(b) {
			return false
		}
		if !gs.pairs[simKey{a, b}] {
			return false
		}
	}
	return true
}

// SimulatesToAny reports e ⪯ d for some d in ds.
func SimulatesToAny(e instance.Pointed, ds []instance.Pointed) bool {
	return SimulatesToAnyCtx(context.Background(), e, ds)
}

// SimulatesToAnyCtx is SimulatesToAny under a solver context.
func SimulatesToAnyCtx(ctx context.Context, e instance.Pointed, ds []instance.Pointed) bool {
	for _, d := range ds {
		if SimulatesCtx(ctx, e, d) {
			return true
		}
	}
	return false
}

// SimEquivalent reports mutual simulation.
func SimEquivalent(e1, e2 instance.Pointed) bool {
	return SimEquivalentCtx(context.Background(), e1, e2)
}

// SimEquivalentCtx is SimEquivalent under a solver context.
func SimEquivalentCtx(ctx context.Context, e1, e2 instance.Pointed) bool {
	return SimulatesCtx(ctx, e1, e2) && SimulatesCtx(ctx, e2, e1)
}

// autoSimulation computes the greatest simulation of an instance in
// itself; used for the complete-initial-piece conditions (Section 5.2).
func autoSimulation(ctx context.Context, in *instance.Instance) *Simulation {
	return greatestSimulation(ctx, in, in)
}

// SimulatedBy reports (in, a) ⪯ (in, b) on a precomputed
// auto-simulation.
func (s *Simulation) SimulatedBy(a, b instance.Value) bool {
	return s.pairs[simKey{a, b}]
}
