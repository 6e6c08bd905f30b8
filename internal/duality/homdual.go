package duality

import (
	"context"
	"fmt"

	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/solve"
)

// DualOfSet computes a finite D such that (F, D) is a homomorphism
// duality for the given finite set F (all members must have c-acyclic
// cores over a binary schema): D consists of the products of one dual
// per member (proof of Theorem 3.31).
func DualOfSet(F []instance.Pointed) ([]instance.Pointed, error) {
	return dualOfSetCaps(context.Background(), F, DefaultCaps())
}

// DualOfSetCtx is DualOfSet under a solver context.
func DualOfSetCtx(ctx context.Context, F []instance.Pointed) ([]instance.Pointed, error) {
	return dualOfSetCaps(ctx, F, DefaultCaps())
}

func dualOfSetCaps(ctx context.Context, F []instance.Pointed, caps Caps) ([]instance.Pointed, error) {
	if len(F) == 0 {
		return nil, fmt.Errorf("duality: dual of empty set is undefined (every instance would be an obstruction target)")
	}
	perMember := make([][]instance.Pointed, len(F))
	for i, f := range F {
		ds, err := dualOfCaps(ctx, f, caps)
		if err != nil {
			return nil, err
		}
		perMember[i] = ds
	}
	// Products over all picks. Guard against blow-up: the product domain
	// is the product of the factor domains, and core computation is only
	// affordable on small instances.
	const coreCap = 64
	acc := perMember[0]
	for _, ds := range perMember[1:] {
		var next []instance.Pointed
		for _, a := range acc {
			solve.Check(ctx)
			for _, d := range ds {
				if a.I.DomSize()*d.I.DomSize() > caps.MaxElements {
					return nil, ErrTooLarge
				}
				p, err := instance.ProductCtx(ctx, a, d)
				if err != nil {
					return nil, err
				}
				if p.I.DomSize() <= coreCap {
					p = hom.CoreCtx(ctx, p)
				}
				next = append(next, p)
				if len(next) > caps.MaxDuals {
					return nil, ErrTooLarge
				}
			}
		}
		acc = next
	}
	return acc, nil
}

// IsHomDuality reports, exactly, whether (F, D) is a homomorphism
// duality (the HomDual problem of Section 4). The procedure follows
// Prop 4.7: F is reduced to pairwise incomparable cores; every member
// must be c-acyclic (otherwise the answer is definitively false); then a
// known-correct dual D' of F is constructed and compared to D for mutual
// coverage. Requires a binary schema (ErrUnsupported otherwise).
func IsHomDuality(F, D []instance.Pointed) (bool, error) {
	return IsHomDualityCtx(context.Background(), F, D)
}

// IsHomDualityCtx is IsHomDuality under a solver context: the
// homomorphism checks and dual constructions are memoized through the
// caches carried by ctx and stop promptly on cancellation.
func IsHomDualityCtx(ctx context.Context, F, D []instance.Pointed) (bool, error) {
	if len(F) == 0 {
		return false, fmt.Errorf("duality: empty F never forms a duality (no instance lies above it)")
	}
	// Quick necessary condition: no f maps into any d (otherwise f is
	// both above F and below D).
	for _, f := range F {
		for _, d := range D {
			if hom.ExistsCtx(ctx, f, d) {
				return false, nil
			}
		}
	}
	Fmin := minimizeLower(ctx, F)
	for _, f := range Fmin {
		if !instance.CAcyclic(hom.CoreCtx(ctx, f)) {
			// The left-hand side of a finite duality must consist of
			// c-acyclic cores (Prop 4.7).
			return false, nil
		}
	}
	Dprime, err := DualOfSetCtx(ctx, Fmin)
	if err != nil {
		return false, err
	}
	// (F, D) is a duality iff D and D' are hom-equivalent as downsets:
	// every d in D maps into some d' in D' and vice versa.
	for _, d := range D {
		if !hom.ExistsToAnyCtx(ctx, d, Dprime) {
			return false, nil
		}
	}
	for _, dp := range Dprime {
		if !hom.ExistsToAnyCtx(ctx, dp, D) {
			return false, nil
		}
	}
	return true, nil
}

// minimizeLower keeps hom-minimal representatives of F: f is dropped if
// some other member maps into it (the remaining members generate the
// same upward closure).
func minimizeLower(ctx context.Context, F []instance.Pointed) []instance.Pointed {
	var out []instance.Pointed
	for i, f := range F {
		dominated := false
		for j, g := range F {
			if i == j {
				continue
			}
			if hom.ExistsCtx(ctx, g, f) && !(hom.ExistsCtx(ctx, f, g) && j > i) {
				// g is below f; keep g (ties broken by index).
				if !hom.ExistsCtx(ctx, f, g) || j < i {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return F[:1]
	}
	return out
}

// maximizeUpper keeps hom-maximal representatives of D: d is dropped if
// it maps into some other member (same downward closure).
func maximizeUpper(ctx context.Context, D []instance.Pointed) []instance.Pointed {
	var out []instance.Pointed
	for i, d := range D {
		dominated := false
		for j, g := range D {
			if i == j {
				continue
			}
			if hom.ExistsCtx(ctx, d, g) {
				if !hom.ExistsCtx(ctx, g, d) || j < i {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			out = append(out, d)
		}
	}
	if len(out) == 0 && len(D) > 0 {
		return D[:1]
	}
	return out
}

// GHRV returns the Gallai–Hasse–Roy–Vitaver duality of Example 2.14:
// ({P_n}, {T_n}) where P_n is the directed path with n edges (n+1
// vertices) and T_n the transitive tournament on n elements: a digraph
// admits no homomorphic image of the (n+1)-vertex path iff it maps into
// the linear order on n elements.
func GHRV(n int) (F, D []instance.Pointed) {
	F = []instance.Pointed{pathN(n)}
	D = []instance.Pointed{tournamentN(n)}
	return F, D
}

func pathN(n int) instance.Pointed {
	in := instance.New(schemaR())
	for i := 0; i < n; i++ {
		mustAdd(in, "R", val("p", i), val("p", i+1))
	}
	return instance.NewPointed(in)
}

func tournamentN(n int) instance.Pointed {
	in := instance.New(schemaR())
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mustAdd(in, "R", val("t", i), val("t", j))
		}
	}
	return instance.NewPointed(in)
}

func val(p string, i int) instance.Value {
	return instance.Value(fmt.Sprintf("%s%d", p, i))
}
