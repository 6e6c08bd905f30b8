package engine

import (
	"context"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"

	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/obs"
	"extremalcq/internal/store"
)

// DefaultCacheSize is the per-class entry bound used when Options leaves
// CacheSize at zero.
const DefaultCacheSize = 4096

// maxMemoShards bounds the stripe count; past a few hundred stripes the
// maps are so sparse that more stripes only waste memory.
const maxMemoShards = 256

// Memo is a thread-safe memoization cache for the hot paths of the
// fitting algorithms: homomorphism searches, cores and direct products,
// keyed by the canonical fingerprints of the operand pointed instances.
// It implements hom.Cache and instance.ProductCache, so a single Memo
// can be attached to a solver context for both roles (hom.WithCache and
// instance.WithProductCache); each engine owns one Memo and attaches it
// only to its own jobs' contexts.
//
// The cache is lock-striped: entries are spread across power-of-two
// many shards (sized to GOMAXPROCS by default), each with its own
// mutex, so concurrent workers hitting different keys do not serialize
// on one lock. Keys are SHA-256 fingerprints, so their leading bytes
// already distribute uniformly across shards.
//
// Assignments are deep-copied on both Put and Get, and cores and
// products are stored in their EncodeBinary form (the bytes memo spill
// persists) and decoded afresh on every Get: the cache never shares
// mutable state with its callers, which keeps concurrent workers
// race-free even though Instance builds its lookup indexes lazily. The
// encoded form is also several times smaller than a deep copy, which
// keeps the count-bounded core and product classes small in memory.
type Memo struct {
	shards []memoShard
	mask   uint32
	// perShard bounds each class within each shard; the whole-memo
	// per-class bound is perShard * len(shards), rounded up from the
	// requested maxEntries.
	perShard int

	// spill, when non-nil, persists memo entries through the engine's
	// write-behind queue and faults persisted entries back in on a miss
	// (see spill.go). Faulted entries install into the shard without
	// re-spilling and count as hits plus a per-class faulted counter.
	spill *spillSink

	homHits    atomic.Int64
	homMisses  atomic.Int64
	coreHits   atomic.Int64
	coreMisses atomic.Int64
	prodHits   atomic.Int64
	prodMisses atomic.Int64
}

// memoShard is one lock stripe: a mutex and the three class maps it
// guards. Core and product values are EncodeBinary bytes.
type memoShard struct {
	mu   sync.Mutex
	hom  map[string]homEntry
	core map[string][]byte
	prod map[string][]byte
}

type homEntry struct {
	h      hom.Assignment
	exists bool
}

// NewMemo returns a Memo bounding each class (hom, core, product) to
// roughly maxEntries entries, striped across one shard per GOMAXPROCS
// (rounded up to a power of two); maxEntries <= 0 selects
// DefaultCacheSize. When a shard's class is full an arbitrary entry is
// evicted.
func NewMemo(maxEntries int) *Memo {
	return NewMemoShards(maxEntries, 0)
}

// NewMemoShards is NewMemo with an explicit stripe count (rounded up to
// a power of two, clamped to [1, 256]); shards <= 0 selects one per
// GOMAXPROCS. It exists so contention benchmarks can pit a single
// stripe against many.
func NewMemoShards(maxEntries, shards int) *Memo {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheSize
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards && n < maxMemoShards {
		n <<= 1
	}
	perShard := (maxEntries + n - 1) / n
	m := &Memo{
		shards:   make([]memoShard, n),
		mask:     uint32(n - 1),
		perShard: perShard,
	}
	for i := range m.shards {
		m.shards[i] = memoShard{
			hom:  make(map[string]homEntry),
			core: make(map[string][]byte),
			prod: make(map[string][]byte),
		}
	}
	return m
}

// shard picks the stripe for a key. Keys are SHA-256 digests or
// concatenations of two of them (pairKey), so both the leading and the
// trailing four bytes are uniformly distributed — and mixing both ends
// matters: a pair key's head depends only on the *first* operand, so a
// head-only hash would collapse the one-to-many hom-check pattern
// (one product instance checked against many candidates) onto a single
// stripe. Short keys fall back to FNV.
func (m *Memo) shard(key string) *memoShard {
	var h uint32
	if n := len(key); n >= 8 {
		h = uint32(key[0]) | uint32(key[1])<<8 | uint32(key[2])<<16 | uint32(key[3])<<24
		h ^= uint32(key[n-4]) | uint32(key[n-3])<<8 | uint32(key[n-2])<<16 | uint32(key[n-1])<<24
	} else {
		f := fnv.New32a()
		f.Write([]byte(key))
		h = f.Sum32()
	}
	return &m.shards[h&m.mask]
}

// CacheStats is a snapshot of hit/miss counters per memo class.
type CacheStats struct {
	HomHits       int64 `json:"hom_hits"`
	HomMisses     int64 `json:"hom_misses"`
	CoreHits      int64 `json:"core_hits"`
	CoreMisses    int64 `json:"core_misses"`
	ProductHits   int64 `json:"product_hits"`
	ProductMisses int64 `json:"product_misses"`
	Entries       int   `json:"entries"`
	Shards        int   `json:"shards"`
}

// Hits returns the total number of cache hits across all classes.
func (s CacheStats) Hits() int64 { return s.HomHits + s.CoreHits + s.ProductHits }

// Stats returns a snapshot of the counters and current size.
func (m *Memo) Stats() CacheStats {
	entries := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		entries += len(sh.hom) + len(sh.core) + len(sh.prod)
		sh.mu.Unlock()
	}
	return CacheStats{
		HomHits:       m.homHits.Load(),
		HomMisses:     m.homMisses.Load(),
		CoreHits:      m.coreHits.Load(),
		CoreMisses:    m.coreMisses.Load(),
		ProductHits:   m.prodHits.Load(),
		ProductMisses: m.prodMisses.Load(),
		Entries:       entries,
		Shards:        len(m.shards),
	}
}

func pairKey(a, b instance.Pointed) string {
	return a.Fingerprint() + b.Fingerprint()
}

// GetHom implements hom.Cache. A memory miss with spill enabled faults
// the persisted verdict in (installing it for later lookups) before
// conceding the miss. Hits, misses and fault-ins are also attributed to
// the trace recorder of the querying job's context, if any.
func (m *Memo) GetHom(ctx context.Context, from, to instance.Pointed) (hom.Assignment, bool, bool) {
	rec := obs.FromContext(ctx)
	k := pairKey(from, to)
	sh := m.shard(k)
	sh.mu.Lock()
	e, ok := sh.hom[k]
	sh.mu.Unlock()
	if !ok && m.spill != nil {
		if h, exists, faulted := m.spill.loadHom(k); faulted {
			e = installFaulted(m, sh, sh.hom, k, homEntry{h: h, exists: exists}, store.KindHom, rec)
			ok = true
		}
	}
	if !ok {
		m.homMisses.Add(1)
		rec.Add(obs.CtrMemoHomMisses, 1)
		return nil, false, false
	}
	m.homHits.Add(1)
	rec.Add(obs.CtrMemoHomHits, 1)
	return copyAssignment(e.h), e.exists, true
}

// PutHom implements hom.Cache.
func (m *Memo) PutHom(ctx context.Context, from, to instance.Pointed, h hom.Assignment, exists bool) {
	k := pairKey(from, to)
	e := homEntry{h: copyAssignment(h), exists: exists}
	sh := m.shard(k)
	sh.mu.Lock()
	evictIfFull(sh.hom, k, m.perShard)
	sh.hom[k] = e
	sh.mu.Unlock()
	if m.spill != nil {
		// The entry's own deep copy is immutable from here on, so the
		// encoding races nothing.
		m.spill.saveHom(k, e.h, exists)
	}
}

// GetCore implements hom.Cache; misses fault in like GetHom.
func (m *Memo) GetCore(ctx context.Context, p instance.Pointed) (instance.Pointed, bool) {
	return m.getPointed(ctx, p.Fingerprint(), store.KindCore)
}

// PutCore implements hom.Cache.
func (m *Memo) PutCore(ctx context.Context, p, core instance.Pointed) {
	m.putPointed(p.Fingerprint(), store.KindCore, core)
}

// GetProduct implements instance.ProductCache; misses fault in like
// GetHom.
func (m *Memo) GetProduct(ctx context.Context, a, b instance.Pointed) (instance.Pointed, bool) {
	return m.getPointed(ctx, pairKey(a, b), store.KindProduct)
}

// PutProduct implements instance.ProductCache.
func (m *Memo) PutProduct(ctx context.Context, a, b, prod instance.Pointed) {
	m.putPointed(pairKey(a, b), store.KindProduct, prod)
}

// class returns the shard map of the encoded class kind (store.KindCore
// or store.KindProduct). The maps are made once in NewMemoShards and
// never replaced, so reading the field needs no lock.
func (sh *memoShard) class(kind byte) map[string][]byte {
	if kind == store.KindCore {
		return sh.core
	}
	return sh.prod
}

// getPointed looks up an encoded core or product and decodes a fresh
// instance for the caller. Misses fault in like GetHom; a fault-in
// serves the instance loadPointed decoded, so the record is decoded
// once. Hits and misses count per class.
func (m *Memo) getPointed(ctx context.Context, k string, kind byte) (instance.Pointed, bool) {
	rec := obs.FromContext(ctx)
	hits, misses, ctrHit, ctrMiss := &m.coreHits, &m.coreMisses, obs.CtrMemoCoreHits, obs.CtrMemoCoreMisses
	if kind == store.KindProduct {
		hits, misses, ctrHit, ctrMiss = &m.prodHits, &m.prodMisses, obs.CtrMemoProductHits, obs.CtrMemoProductMisses
	}
	sh := m.shard(k)
	mp := sh.class(kind)
	sh.mu.Lock()
	enc, ok := mp[k]
	sh.mu.Unlock()
	var p instance.Pointed
	switch {
	case ok:
		p = decodeStored(enc)
	case m.spill != nil:
		var raw []byte
		if p, raw, ok = m.spill.loadPointed(kind, k); ok {
			// A concurrent install may win; its value is as valid for k
			// as the record decoded here.
			installFaulted(m, sh, mp, k, raw, kind, rec)
		}
	}
	if !ok {
		misses.Add(1)
		rec.Add(ctrMiss, 1)
		return instance.Pointed{}, false
	}
	hits.Add(1)
	rec.Add(ctrHit, 1)
	return p, true
}

// decodeStored decodes a core or product the memo holds. putPointed
// stores EncodeBinary's bytes and a fault-in stores only bytes that
// decoded, so a failure here is a broken invariant, not a miss.
func decodeStored(enc []byte) instance.Pointed {
	p, err := instance.DecodePointed(enc)
	if err != nil {
		panic("engine: stored memo entry does not decode: " + err.Error())
	}
	return p
}

// putPointed stores the encoding of a core or product, and spills the
// same bytes when spill is on.
func (m *Memo) putPointed(k string, kind byte, p instance.Pointed) {
	enc := p.EncodeBinary()
	sh := m.shard(k)
	mp := sh.class(kind)
	sh.mu.Lock()
	evictIfFull(mp, k, m.perShard)
	mp[k] = enc
	sh.mu.Unlock()
	if m.spill != nil {
		m.spill.savePointed(kind, k, enc)
	}
}

// installFaulted installs a value faulted in from the spill store into
// its shard map, unless a concurrent fault-in of the same key got there
// first — only the goroutine that installs counts the fault, so
// faulted_* counters report distinct installs, not racing probes. The
// winning entry (existing or just installed) is returned for the
// caller to serve. The install is also attributed to rec (the querying
// job's trace recorder), per memo class.
func installFaulted[V any](m *Memo, sh *memoShard, mp map[string]V, k string, dec V, kind byte, rec *obs.Recorder) V {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, present := mp[k]; present {
		return cur
	}
	evictIfFull(mp, k, m.perShard)
	mp[k] = dec
	m.spill.countFault(kind)
	rec.Add(faultCounter(kind), 1)
	return dec
}

// faultCounter maps a store record kind to its per-job fault counter.
func faultCounter(kind byte) obs.Counter {
	switch kind {
	case store.KindHom:
		return obs.CtrFaultHom
	case store.KindCore:
		return obs.CtrFaultCore
	default:
		return obs.CtrFaultProduct
	}
}

// evictIfFull removes one arbitrary entry when the map has reached the
// bound and key is not already present (overwrites need no capacity);
// map iteration order makes the choice pseudorandom.
func evictIfFull[V any](mp map[string]V, key string, max int) {
	if len(mp) < max {
		return
	}
	if _, ok := mp[key]; ok {
		return
	}
	for k := range mp {
		delete(mp, k)
		return
	}
}

func copyAssignment(h hom.Assignment) hom.Assignment {
	if h == nil {
		return nil
	}
	out := make(hom.Assignment, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}
