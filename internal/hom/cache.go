package hom

import (
	"context"

	"extremalcq/internal/instance"
)

// Cache memoizes homomorphism verdicts and cores. The paper's
// procedures only ask whether a homomorphism exists, so the hom class
// keeps the verdict alone: ExistsCtx consults it, FindCtx (whose
// witness a verdict cannot supply) never does. The hooks may be called
// concurrently, so implementations must be safe for concurrent use;
// GetCore must return an instance that the caller may freely use (not
// shared with other callers).
//
// Keys are the exact content of the pointed instances: a hom check is
// keyed by instance.DigestPair(from, to) and a core by its instance's
// Digest, each computed once per memoized call and shared by its Get
// and Put. The querying job's context is passed through so
// implementations can attribute traffic (hits, misses, spill
// fault-ins) to the job's trace recorder.
type Cache interface {
	// GetHom returns a memoized verdict: ok reports a cache hit, exists
	// whether a homomorphism exists.
	GetHom(ctx context.Context, key instance.PairDigest) (exists, ok bool)
	// PutHom memoizes a verdict.
	PutHom(ctx context.Context, key instance.PairDigest, exists bool)
	// GetCore returns a memoized core.
	GetCore(ctx context.Context, key instance.Digest) (instance.Pointed, bool)
	// PutCore memoizes a core.
	PutCore(ctx context.Context, key instance.Digest, core instance.Pointed)
}

// cacheKey is the context key under which a Cache travels. The cache is
// per-context rather than process-wide, so concurrently live engines
// (each attaching its own memo to the contexts of its jobs) never see
// each other's entries.
type cacheKey struct{}

// WithCache returns a context carrying c; the FindCtx/ExistsCtx/CoreCtx
// entry points consult it. A nil c returns ctx unchanged.
func WithCache(ctx context.Context, c Cache) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, cacheKey{}, c)
}

// cacheFrom extracts the cache carried by ctx, or nil.
func cacheFrom(ctx context.Context) Cache {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(cacheKey{}).(Cache)
	return c
}
