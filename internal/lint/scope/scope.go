// Package scope centralizes which packages each cqlint analyzer
// applies to, so the analyzer set and the documentation cannot drift
// apart. Matching is by the package path's last element, which keeps
// the analyzers testable against small fixture packages carrying the
// same base names.
package scope

import (
	"go/token"
	"strings"
)

// solverPackages are the packages holding the potentially-exponential
// search loops of the fitting algorithms: every loop that can iterate
// unboundedly must reach a cancellation checkpoint (PR 2), and no
// package-level mutable state is allowed (multi-tenant isolation).
var solverPackages = map[string]bool{
	"hom":      true,
	"tree":     true,
	"fitting":  true,
	"frontier": true,
	"ucqfit":   true,
	"duality":  true,
	"instance": true,
	"genex":    true,
	"compact":  true, // hom search core: GYO, join-tree and worker loops must checkpoint, workers must join
	"universe": true, // compiled candidate universes: walk and replay loops must checkpoint
}

// lockedIOPackages are the packages where holding a mutex across
// blocking I/O, channel sends or store-API calls has repeatedly been
// caught in review (the engine's write-behind fence, the store's
// compaction): Base -> true means the stricter engine rules apply.
var lockedIOPackages = map[string]bool{
	"engine": true,  // serving tier: no I/O, sends or store calls under any lock
	"store":  false, // log append under the store mutex is the design; read-path I/O is not
}

// lockOrderPackages are the packages carrying the named mutexes of
// the serving stack (the engine's five locks, the store mutex, the
// memo shards, the trace recorder): lockorder tracks acquisition order
// across all of them, and goroleak treats them — together with the
// solver packages — as goroutine owners.
// enum carries no mutex today; it is in scope so one growing a lock
// is checked from its first commit. universe carries the compiled
// universe cache's mutex.
var lockOrderPackages = map[string]bool{
	"engine":   true,
	"store":    true,
	"enum":     true,
	"obs":      true,
	"universe": true,
}

// errFlowPackages are the packages on the durability path, where a
// silently dropped error loses data: every monitored error must reach
// a return, a counted-drop metric, or a logged sink on every path.
var errFlowPackages = map[string]bool{
	"engine": true,
	"store":  true,
}

// Base returns the last element of a package path.
func Base(pkgPath string) string {
	if i := strings.LastIndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[i+1:]
	}
	return pkgPath
}

// IsSolver reports whether pkgPath is one of the solver packages.
func IsSolver(pkgPath string) bool { return solverPackages[Base(pkgPath)] }

// LockedIO reports whether pkgPath is in mutexheld's scope, and if so
// whether the strict (engine) rules apply.
func LockedIO(pkgPath string) (strict, in bool) {
	strict, in = lockedIOPackages[Base(pkgPath)]
	return strict, in
}

// IsLockOrder reports whether pkgPath is in lockorder's scope.
func IsLockOrder(pkgPath string) bool { return lockOrderPackages[Base(pkgPath)] }

// IsGoroutineOwner reports whether pkgPath is in goroleak's scope: the
// serving packages plus the solver packages, i.e. everywhere a leaked
// goroutine would accumulate under sustained traffic.
func IsGoroutineOwner(pkgPath string) bool {
	b := Base(pkgPath)
	return lockOrderPackages[b] || solverPackages[b]
}

// IsErrFlow reports whether pkgPath is in errflow's scope.
func IsErrFlow(pkgPath string) bool { return errFlowPackages[Base(pkgPath)] }

// IsTestFile reports whether pos lies in a _test.go file. The
// concurrency invariants guard production code; tests hold no locks
// over request paths and are free to use package-level fixtures.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
