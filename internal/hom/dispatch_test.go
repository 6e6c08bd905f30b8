package hom

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"extremalcq/internal/compact"
	"extremalcq/internal/genex"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
)

// canonAssignment renders an assignment as a canonical string so answer
// SETS can be compared across enumeration orders.
func canonAssignment(a Assignment) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s;", k, a[instance.Value(k)])
	}
	return sb.String()
}

func findAllSet(ctx context.Context, from, to instance.Pointed) map[string]bool {
	out := make(map[string]bool)
	FindAllCtx(ctx, from, to, func(a Assignment) bool {
		out[canonAssignment(a)] = true
		return true
	})
	return out
}

// validHom checks that assignment a maps every fact of from into to.
func validHom(from, to *instance.Instance, a Assignment) bool {
	for _, f := range from.Facts() {
		if !to.Has(f.Map(a)) {
			return false
		}
	}
	return true
}

// checkWitness verifies an assignment is a genuine homomorphism: every
// fact is preserved and every distinguished element maps to its
// counterpart.
func checkWitness(t *testing.T, from, to instance.Pointed, a Assignment) {
	t.Helper()
	if !validHom(from.I, to.I, a) {
		t.Fatalf("witness does not preserve facts: %v", a)
	}
	for i, v := range from.Tuple {
		if a[v] != to.Tuple[i] {
			t.Fatalf("witness maps distinguished %s to %s, want %s", v, a[v], to.Tuple[i])
		}
	}
}

// agreeOnInstance cross-checks the two dispatch paths on one
// (from, to) pair: same exists verdict, valid witnesses from both, and
// identical enumerated answer sets.
func agreeOnInstance(t *testing.T, from, to instance.Pointed) {
	t.Helper()
	auto := context.Background()
	forced := WithDispatchMode(context.Background(), DispatchBacktrack)

	hAuto, okAuto := FindCtx(auto, from, to)
	hForced, okForced := FindCtx(forced, from, to)
	if okAuto != okForced {
		t.Fatalf("exists disagreement: jointree=%v backtrack=%v", okAuto, okForced)
	}
	if okAuto {
		checkWitness(t, from, to, hAuto)
		checkWitness(t, from, to, hForced)
	}

	setAuto := findAllSet(auto, from, to)
	setForced := findAllSet(forced, from, to)
	if len(setAuto) != len(setForced) {
		t.Fatalf("answer-set sizes differ: jointree=%d backtrack=%d", len(setAuto), len(setForced))
	}
	for k := range setForced {
		if !setAuto[k] {
			t.Fatalf("jointree path missed answer %s", k)
		}
	}
}

// TestDispatchAgreementRandom compares the join-tree and backtracking
// paths on randomized instances. The generator emits both acyclic and
// cyclic sources; the test requires seeing each kind, so both dispatch
// targets are genuinely exercised.
func TestDispatchAgreementRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sch := genex.SchemaR()
	acyclicSeen, cyclicSeen := 0, 0
	for i := 0; i < 120; i++ {
		from := genex.RandomPointed(rng, sch, 4, 2+rng.Intn(5), rng.Intn(2))
		to := genex.RandomPointed(rng, sch, 3, 2+rng.Intn(7), from.Arity())
		if compact.Acyclic(context.Background(), from.I) {
			acyclicSeen++
		} else {
			cyclicSeen++
		}
		agreeOnInstance(t, from, to)
	}
	if acyclicSeen == 0 || cyclicSeen == 0 {
		t.Fatalf("generator covered only one structure class: acyclic=%d cyclic=%d", acyclicSeen, cyclicSeen)
	}
}

// TestDispatchAgreementFamilies pins the cross-check on the structured
// families where the paths' behavior differs most: parity chains and
// cycles (designed to defeat GAC pruning), directed paths into cycles,
// and satisfiable chain-to-target cases.
func TestDispatchAgreementFamilies(t *testing.T) {
	parity := genex.ParityTarget()
	for n := 1; n <= 6; n++ {
		agreeOnInstance(t, genex.ParityChain(n), parity)
	}
	for n := 3; n <= 6; n++ {
		agreeOnInstance(t, genex.ParityCycle(n), parity)
	}
	// Satisfiable acyclic cases: paths map into cycles of dividing and
	// non-dividing lengths, exercising witness extraction and full
	// enumeration on the join-tree path.
	for _, n := range []int{2, 3, 5} {
		for _, m := range []int{2, 3, 4} {
			agreeOnInstance(t, genex.DirectedPath(n), genex.DirectedCycle(m))
		}
	}
}

// TestDispatchCounters checks that each search records the path it
// took on the recorder and in the context-carried DispatchStats: the
// join tree for an acyclic source, the cutset search for C3 → C3 (one
// peeled variable, three leaves at most), the backtracker for K6 → K5,
// whose four peeled variables would give 5^4 leaves, and for any search
// with dispatch forced.
func TestDispatchCounters(t *testing.T) {
	var stats DispatchStats
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(WithDispatchStats(context.Background(), &stats), rec)
	ExistsCtx(ctx, genex.DirectedPath(3), genex.DirectedCycle(3))  // acyclic source
	ExistsCtx(ctx, genex.DirectedCycle(3), genex.DirectedCycle(3)) // cyclic source, small cut
	ExistsCtx(ctx, genex.Clique(6), genex.Clique(5))               // cyclic source, cut past the budget
	jt, cs, bt := stats.Snapshot()
	if jt != 1 || cs != 1 || bt != 1 {
		t.Fatalf("dispatch stats = (%d, %d, %d), want (1, 1, 1)", jt, cs, bt)
	}
	got := [3]int64{rec.Count(obs.CtrDispatchJoinTree), rec.Count(obs.CtrDispatchCutset), rec.Count(obs.CtrDispatchBacktrack)}
	if got != [3]int64{1, 1, 1} {
		t.Fatalf("recorder dispatch counters = %v, want [1 1 1]", got)
	}
	forced := WithDispatchMode(ctx, DispatchBacktrack)
	ExistsCtx(forced, genex.DirectedPath(3), genex.DirectedCycle(3))
	ExistsCtx(forced, genex.DirectedCycle(3), genex.DirectedCycle(3))
	if jt, cs, bt = stats.Snapshot(); jt != 1 || cs != 1 || bt != 3 {
		t.Fatalf("forced backtrack not counted: dispatch stats = (%d, %d, %d), want (1, 1, 3)", jt, cs, bt)
	}
}

// TestJoinTreeEarlyStop checks the join-tree enumeration honors
// yield=false, mirroring the backtracking contract.
func TestJoinTreeEarlyStop(t *testing.T) {
	from, to := genex.DirectedPath(2), genex.DirectedCycle(4)
	if !compact.Acyclic(context.Background(), from.I) {
		t.Fatal("setup: path must be acyclic")
	}
	seen := 0
	FindAll(from, to, func(Assignment) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Fatalf("enumeration yielded %d answers after early stop, want 2", seen)
	}
}
