package hypergraph

import (
	"context"
	"sync"

	"extremalcq/internal/instance"
)

// DefaultCacheSize bounds a decomposition cache's entries. An acyclic
// source's entry holds its hypergraph, which shares the instance's
// facts and so keeps them (and their value strings) alive until the
// entry is evicted, plus the forest's int slices; a cyclic source's
// entry holds the verdict alone. A few thousand entries cover the
// working set of a busy engine.
const DefaultCacheSize = 4096

// Cache memoizes acyclicity verdicts and join forests per instance
// fingerprint. Like the solver memo it is context-carried, never
// process-global: each engine owns one and attaches it to its jobs'
// contexts, so concurrently live engines stay isolated. Safe for
// concurrent use. The zero value is not usable; create with NewCache.
type Cache struct {
	mu  sync.Mutex
	m   map[string]cacheEntry
	cap int
}

// cacheEntry is one probe verdict. hg and forest are nil when the
// source is cyclic: dispatch reads them only for acyclic sources, and a
// cyclic source's hypergraph would pin its facts for nothing.
type cacheEntry struct {
	hg      *Hypergraph
	forest  *Forest
	acyclic bool
}

// NewCache returns a cache bounded to cap entries (<= 0 selects
// DefaultCacheSize).
func NewCache(cap int) *Cache {
	if cap <= 0 {
		cap = DefaultCacheSize
	}
	return &Cache{m: make(map[string]cacheEntry), cap: cap}
}

func (c *Cache) get(key string) (cacheEntry, bool) {
	c.mu.Lock()
	e, ok := c.m[key]
	c.mu.Unlock()
	return e, ok
}

func (c *Cache) put(key string, e cacheEntry) {
	c.mu.Lock()
	if _, ok := c.m[key]; !ok && len(c.m) >= c.cap {
		// Evict an arbitrary entry: the cache is a decomposition memo,
		// not a correctness structure, so any victim is fine.
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[key] = e
	c.mu.Unlock()
}

// Probe decides whether the source of a hom search is α-acyclic and,
// when it is, returns its hypergraph and join forest (both nil when it
// is not). The verdict is memoized in the context-carried cache (see
// WithCache) keyed by the instance's canonical fingerprint; the
// distinguished tuple does not affect the structure, so all pointings
// of an instance share one entry. Without a cache in ctx the
// decomposition runs every time.
func Probe(ctx context.Context, p instance.Pointed) (*Hypergraph, *Forest, bool) {
	c := cacheFrom(ctx)
	var key string
	if c != nil {
		key = p.I.Fingerprint()
		if e, ok := c.get(key); ok {
			return e.hg, e.forest, e.acyclic
		}
	}
	hg := FromPointed(p)
	forest, acyclic := Decompose(ctx, hg.Sets)
	if !acyclic {
		hg = nil
	}
	if c != nil {
		c.put(key, cacheEntry{hg: hg, forest: forest, acyclic: acyclic})
	}
	return hg, forest, acyclic
}

// cacheKey is the context key under which a *Cache travels (the same
// ctx-threading pattern as hom.WithCache).
type cacheKey struct{}

// WithCache returns a context carrying c; Probe consults it. A nil c
// returns ctx unchanged.
func WithCache(ctx context.Context, c *Cache) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, cacheKey{}, c)
}

func cacheFrom(ctx context.Context) *Cache {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(cacheKey{}).(*Cache)
	return c
}
