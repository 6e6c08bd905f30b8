package hypergraph

import (
	"context"
	"testing"

	"extremalcq/internal/genex"
	"extremalcq/internal/solve"
)

// TestProbeCacheKeepsOnlyVerdictForCyclic checks that the probe cache
// keeps a cyclic source's verdict without its hypergraph (which would
// pin the source's facts until eviction), that a repeat probe of it
// still hits, and that an acyclic source's entry keeps what dispatch
// evaluates over.
func TestProbeCacheKeepsOnlyVerdictForCyclic(t *testing.T) {
	c := NewCache(0)
	ctx := WithCache(context.Background(), c)
	cycle := genex.ParityCycle(4)
	if hg, fo, acyclic := Probe(ctx, cycle); acyclic || hg != nil || fo != nil {
		t.Fatalf("cyclic source: Probe = (%v, %v, %v), want (nil, nil, false)", hg, fo, acyclic)
	}
	e, ok := c.get(cycle.I.Fingerprint())
	if !ok {
		t.Fatal("cyclic source's verdict was not cached")
	}
	if e.hg != nil || e.forest != nil || e.acyclic {
		t.Fatalf("cyclic entry holds hg=%v forest=%v acyclic=%v, want the verdict alone", e.hg, e.forest, e.acyclic)
	}
	// A miss would decompose, and Decompose checks the (canceled)
	// context; a hit returns the verdict without decomposing.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	err := func() (err error) {
		defer solve.Catch(&err)
		if _, _, acyclic := Probe(canceled, cycle); acyclic {
			t.Error("repeat probe of the cyclic source reads acyclic")
		}
		return nil
	}()
	if err != nil {
		t.Fatalf("repeat probe of the cyclic source decomposed again: %v", err)
	}

	chain := genex.ParityChain(4)
	hg, fo, acyclic := Probe(ctx, chain)
	if !acyclic || hg == nil || fo == nil {
		t.Fatalf("acyclic source: Probe = (%v, %v, %v), want its hypergraph and forest", hg, fo, acyclic)
	}
	if e, ok := c.get(chain.I.Fingerprint()); !ok || e.hg != hg || e.forest != fo {
		t.Fatal("acyclic source's entry does not hold its hypergraph and forest")
	}
}
