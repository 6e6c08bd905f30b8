// Package duality implements homomorphism dualities (Section 2.2):
//
//   - DualOf: given a c-acyclic data example e over a binary schema,
//     constructs a finite set D with ({e}, D) a homomorphism duality
//     (Theorem 2.16(2)). The construction builds, per connected
//     component and per equality type of the distinguished tuple, a
//     "failure-certificate" structure whose elements encode which
//     subtrees of the component cannot be realized at a target element,
//     together with a chosen justification. This is the classical
//     canonical-dual idea behind duals of trees (Nešetřil–Tardif),
//     extended to distinguished elements.
//   - IsHomDuality: exact verification that a pair (F, D) is a
//     homomorphism duality (Prop 4.7's route: duals of the F-side are
//     constructed and compared to D).
//   - SingleDualityExists: the Larose–Loten–Tardif dismantling test for
//     the existence of a duality ({e}, D) (used for most-general UCQ
//     existence, Theorem 4.6(2)).
//
// All constructions require binary schemas (arity <= 2), which covers
// every example family in the paper; higher arities yield ErrUnsupported.
package duality

import (
	"context"
	"errors"
	"fmt"

	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
)

// ErrUnsupported marks inputs outside the implemented fragment.
var ErrUnsupported = errors.New("duality: unsupported input (requires a binary schema and c-acyclic core)")

// ErrTooLarge is returned when a dual construction would exceed the
// configured caps.
var ErrTooLarge = errors.New("duality: construction exceeds size caps")

// Caps bounds the dual construction.
type Caps struct {
	MaxElements int // per dual structure
	MaxDuals    int // total number of structures in the dual set
}

// DefaultCaps returns caps generous enough for all paper workloads. It
// is a function rather than a package-level variable (cqlint:noglobals):
// a shared mutable default would couple every engine in the process.
func DefaultCaps() Caps {
	return Caps{MaxElements: 4096, MaxDuals: 512}
}

// DualOf computes a finite set D of pointed instances such that
// ({e}, D) is a homomorphism duality: for every data example x of the
// same schema and arity, x maps into some member of D iff e does not map
// into x. Requires the core of e to be c-acyclic and the schema binary.
func DualOf(e instance.Pointed) ([]instance.Pointed, error) {
	return DualOfCaps(e, DefaultCaps())
}

// DualOfCaps is DualOf with explicit size caps.
func DualOfCaps(e instance.Pointed, caps Caps) ([]instance.Pointed, error) {
	return dualOfCaps(context.Background(), e, caps)
}

func dualOfCaps(ctx context.Context, e instance.Pointed, caps Caps) ([]instance.Pointed, error) {
	sch := e.I.Schema()
	if !sch.Binary() {
		return nil, ErrUnsupported
	}
	core := hom.CoreCtx(ctx, e)
	if !instance.CAcyclic(core) {
		return nil, fmt.Errorf("%w: core is not c-acyclic (Theorem 2.16)", ErrUnsupported)
	}
	k := core.Arity()
	var duals []instance.Pointed
	for _, theta := range partitions(k) {
		var ds []instance.Pointed
		var err error
		if coarsens(theta, core.EqualityType()) {
			ds, err = dualsForType(core, theta, caps)
			if err != nil {
				return nil, err
			}
		} else {
			// No data example of equality type theta can receive a
			// homomorphism from core; a complete absorber catches all of
			// them.
			ds = []instance.Pointed{absorber(sch, theta)}
		}
		duals = append(duals, ds...)
		if len(duals) > caps.MaxDuals {
			return nil, ErrTooLarge
		}
	}
	return duals, nil
}

// partitions enumerates all set partitions of {0..k-1} as class-index
// slices: part[i] = class of position i, classes numbered by first
// occurrence.
func partitions(k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	cur := make([]int, k)
	var rec func(i, maxClass int)
	rec = func(i, maxClass int) {
		if i == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for c := 0; c <= maxClass; c++ {
			cur[i] = c
			next := maxClass
			if c == maxClass {
				next++
			}
			rec(i+1, next)
		}
	}
	rec(0, 0)
	return out
}

// coarsens reports whether partition theta merges at least the pairs the
// equality type et merges (et[i] = least j with tuple[j]==tuple[i]).
func coarsens(theta []int, et []int) bool {
	for i, j := range et {
		if j != i && theta[i] != theta[j] {
			return false
		}
	}
	return true
}

func deltaName(class int) instance.Value {
	return instance.Value(fmt.Sprintf("δ%d", class))
}

// absorber returns the complete structure on the theta-classes plus one
// extra element, with every possible fact; it receives every data
// example whose equality type is at most theta.
func absorber(sch *schema.Schema, theta []int) instance.Pointed {
	in := instance.New(sch)
	var values []instance.Value
	seen := map[int]bool{}
	for _, c := range theta {
		if !seen[c] {
			seen[c] = true
			values = append(values, deltaName(c))
		}
	}
	values = append(values, "⊥")
	addAllFacts(in, values)
	tuple := make([]instance.Value, len(theta))
	for i, c := range theta {
		tuple[i] = deltaName(c)
	}
	return instance.NewPointed(in, tuple...)
}

func addAllFacts(in *instance.Instance, values []instance.Value) {
	for _, r := range in.Schema().Relations() {
		switch r.Arity {
		case 1:
			for _, v := range values {
				mustAdd(in, r.Name, v)
			}
		case 2:
			for _, v := range values {
				for _, w := range values {
					mustAdd(in, r.Name, v, w)
				}
			}
		}
	}
}

// dualsForType builds the certificate duals for every connected
// component of core, for data examples of equality type theta (which
// coarsens core's own type).
func dualsForType(core instance.Pointed, theta []int, caps Caps) ([]instance.Pointed, error) {
	comps := instance.Components(core)
	var out []instance.Pointed
	for _, comp := range comps {
		ds, err := componentDuals(comp, core.Tuple, theta, caps)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	if len(comps) == 0 {
		// e has no facts: impossible for data examples (every
		// distinguished element occurs in a fact), except k=0 with the
		// empty instance, which maps everywhere: the duality is ({e}, ∅).
		return nil, nil
	}
	return out, nil
}

// mustAdd adds a fact that is valid by construction.
func mustAdd(in *instance.Instance, rel string, args ...instance.Value) {
	if err := in.AddFact(rel, args...); err != nil {
		panic(fmt.Sprintf("duality: internal fact %s%v invalid: %v", rel, args, err))
	}
}
