package genex

import (
	"context"
	"testing"

	"extremalcq/internal/compact"
	"extremalcq/internal/hom"
)

// TestParityFamily checks the family delivers exactly the properties
// the dispatch bench relies on: chains are α-acyclic, cycles are not,
// neither maps into the parity target (P forces odd parity, T preserves
// it, A demands even), and the target itself is internally consistent
// (the chain maps fine into a target with A relaxed to all pairs).
func TestParityFamily(t *testing.T) {
	ctx := context.Background()
	target := ParityTarget()
	if got := target.I.Size(); got != 12 {
		t.Fatalf("parity target has %d facts, want 12 (8 T + 2 P + 2 A)", got)
	}
	for n := 1; n <= 5; n++ {
		chain := ParityChain(n)
		if got := chain.I.Size(); got != n+2 {
			t.Fatalf("chain n=%d has %d facts, want %d", n, got, n+2)
		}
		if !compact.Acyclic(ctx, chain.I) {
			t.Errorf("ParityChain(%d) must be α-acyclic", n)
		}
		if hom.Exists(chain, target) {
			t.Errorf("ParityChain(%d) must not map into the parity target", n)
		}
	}
	for n := 2; n <= 5; n++ {
		cycle := ParityCycle(n)
		if compact.Acyclic(ctx, cycle.I) {
			t.Errorf("ParityCycle(%d) must be cyclic", n)
		}
		if hom.Exists(cycle, target) {
			t.Errorf("ParityCycle(%d) must not map into the parity target", n)
		}
	}

	// Sanity of the unsatisfiability argument: with the even-parity
	// demand removed (A holding all four pairs), the chain maps fine —
	// so the failure above is the P/A parity clash, not a broken target.
	relaxed := ParityTarget()
	must(relaxed.I.AddFact("A", "0", "1"))
	must(relaxed.I.AddFact("A", "1", "0"))
	if !hom.Exists(ParityChain(3), relaxed) {
		t.Error("chain must map into the relaxed target")
	}
}
