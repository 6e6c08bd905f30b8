package engine

import (
	"context"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

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
// fitting algorithms: homomorphism verdicts, cores and direct products,
// keyed by the canonical digests of the operand pointed instances. It
// implements hom.Cache and instance.ProductCache, so a single Memo can
// be attached to a solver context for both roles (hom.WithCache and
// instance.WithProductCache); each engine owns one Memo and attaches it
// only to its own jobs' contexts.
//
// Keys are fixed-size arrays: a core is keyed by its instance's
// instance.Digest, a hom check or product by the two operands' digests
// side by side (instance.PairDigest). A lookup allocates nothing, and
// the hom class, which keeps only the verdict, holds no pointer for the
// garbage collector to scan.
//
// The cache is lock-striped: entries are spread across power-of-two
// many shards (sized to GOMAXPROCS by default), each with its own
// mutex, so concurrent workers hitting different keys do not serialize
// on one lock.
//
// Cores and products are stored in their EncodeBinary form (the bytes
// memo spill persists) and decoded afresh on every Get: the cache never
// shares mutable state with its callers, which keeps concurrent workers
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
	hom  map[instance.PairDigest]bool
	core map[instance.Digest][]byte
	prod map[instance.PairDigest][]byte
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
			hom:  make(map[instance.PairDigest]bool),
			core: make(map[instance.Digest][]byte),
			prod: make(map[instance.PairDigest][]byte),
		}
	}
	return m
}

// shard picks the stripe for a key's bytes. Keys are SHA-256 digests or
// two of them side by side, so both the leading and the trailing four
// bytes are uniformly distributed — and mixing both ends matters: a
// pair key's head depends only on the *first* operand, so a head-only
// hash would collapse the one-to-many hom-check pattern (one product
// instance checked against many candidates) onto a single stripe.
func (m *Memo) shard(key []byte) *memoShard {
	h := binary.LittleEndian.Uint32(key) ^ binary.LittleEndian.Uint32(key[len(key)-4:])
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

// GetHom implements hom.Cache. A memory miss with spill enabled faults
// the persisted verdict in (installing it for later lookups) before
// conceding the miss. Hits, misses and fault-ins are also attributed to
// the trace recorder of the querying job's context, if any.
func (m *Memo) GetHom(ctx context.Context, k instance.PairDigest) (exists, ok bool) {
	rec := obs.FromContext(ctx)
	sh := m.shard(k[:])
	sh.mu.Lock()
	exists, ok = sh.hom[k]
	sh.mu.Unlock()
	if !ok && m.spill != nil {
		var faulted bool
		if exists, faulted = m.spill.loadHom(k[:]); faulted {
			exists = installFaulted(m, sh, sh.hom, k, exists, store.KindHom, rec)
			ok = true
		}
	}
	if !ok {
		m.homMisses.Add(1)
		rec.Add(obs.CtrMemoHomMisses, 1)
		return false, false
	}
	m.homHits.Add(1)
	rec.Add(obs.CtrMemoHomHits, 1)
	return exists, true
}

// PutHom implements hom.Cache.
func (m *Memo) PutHom(ctx context.Context, k instance.PairDigest, exists bool) {
	sh := m.shard(k[:])
	sh.mu.Lock()
	evictIfFull(sh.hom, k, m.perShard)
	sh.hom[k] = exists
	sh.mu.Unlock()
	if m.spill != nil {
		m.spill.save(store.KindHom, k[:], homRecords[exists])
	}
}

// GetCore implements hom.Cache; misses fault in like GetHom.
func (m *Memo) GetCore(ctx context.Context, k instance.Digest) (instance.Pointed, bool) {
	sh := m.shard(k[:])
	return getPointed(ctx, m, sh, sh.core, k, k[:], store.KindCore)
}

// PutCore implements hom.Cache.
func (m *Memo) PutCore(ctx context.Context, k instance.Digest, core instance.Pointed) {
	sh := m.shard(k[:])
	putPointed(m, sh, sh.core, k, k[:], store.KindCore, core)
}

// GetProduct implements instance.ProductCache; misses fault in like
// GetHom.
func (m *Memo) GetProduct(ctx context.Context, k instance.PairDigest) (instance.Pointed, bool) {
	sh := m.shard(k[:])
	return getPointed(ctx, m, sh, sh.prod, k, k[:], store.KindProduct)
}

// PutProduct implements instance.ProductCache.
func (m *Memo) PutProduct(ctx context.Context, k instance.PairDigest, prod instance.Pointed) {
	sh := m.shard(k[:])
	putPointed(m, sh, sh.prod, k, k[:], store.KindProduct, prod)
}

// getPointed looks up an encoded core or product (kind store.KindCore
// or store.KindProduct) in its class map mp of shard sh, and decodes a
// fresh instance for the caller; raw is the key's bytes, the store key
// a fault-in probes. Misses fault in like GetHom; a fault-in serves the
// instance loadPointed decoded, so the record is decoded once. Hits and
// misses count per class.
func getPointed[K comparable](ctx context.Context, m *Memo, sh *memoShard, mp map[K][]byte, k K, raw []byte, kind byte) (instance.Pointed, bool) {
	rec := obs.FromContext(ctx)
	hits, misses, ctrHit, ctrMiss := &m.coreHits, &m.coreMisses, obs.CtrMemoCoreHits, obs.CtrMemoCoreMisses
	if kind == store.KindProduct {
		hits, misses, ctrHit, ctrMiss = &m.prodHits, &m.prodMisses, obs.CtrMemoProductHits, obs.CtrMemoProductMisses
	}
	sh.mu.Lock()
	enc, ok := mp[k]
	sh.mu.Unlock()
	var p instance.Pointed
	switch {
	case ok:
		p = decodeStored(enc)
	case m.spill != nil:
		if p, enc, ok = m.spill.loadPointed(kind, raw); ok {
			// A concurrent install may win; its value is as valid for k
			// as the record decoded here.
			installFaulted(m, sh, mp, k, enc, kind, rec)
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

// putPointed stores the encoding of a core or product in its class map
// mp of shard sh, and spills the same bytes under raw when spill is on.
func putPointed[K comparable](m *Memo, sh *memoShard, mp map[K][]byte, k K, raw []byte, kind byte, p instance.Pointed) {
	enc := p.EncodeBinary()
	sh.mu.Lock()
	evictIfFull(mp, k, m.perShard)
	mp[k] = enc
	sh.mu.Unlock()
	if m.spill != nil {
		m.spill.save(kind, raw, enc)
	}
}

// installFaulted installs a value faulted in from the spill store into
// its shard map, unless a concurrent fault-in of the same key got there
// first — only the goroutine that installs counts the fault, so
// faulted_* counters report distinct installs, not racing probes. The
// winning entry (existing or just installed) is returned for the
// caller to serve. The install is also attributed to rec (the querying
// job's trace recorder), per memo class.
func installFaulted[K comparable, V any](m *Memo, sh *memoShard, mp map[K]V, k K, dec V, kind byte, rec *obs.Recorder) V {
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
func evictIfFull[K comparable, V any](mp map[K]V, key K, max int) {
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
