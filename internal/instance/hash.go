package instance

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"sort"
)

// This file adds canonical hashing of (pointed) instances, used as cache
// keys by the memoization layer of the fitting engine, and the
// context-carried product cache consulted by ProductCtx.

// Digest is the canonical SHA-256 digest of a pointed instance (see
// Pointed.Digest). As an array it is a map key that costs no
// allocation and holds no pointer.
type Digest [sha256.Size]byte

// PairDigest keys an ordered pair of pointed instances: their two
// digests side by side (see DigestPair).
type PairDigest [2 * sha256.Size]byte

// DigestPair returns the key of the ordered pair (a, b).
func DigestPair(a, b Pointed) PairDigest {
	var k PairDigest
	da, db := a.Digest(), b.Digest()
	copy(k[:sha256.Size], da[:])
	copy(k[sha256.Size:], db[:])
	return k
}

// digestBuf sizes the stack buffer Digest hashes from: the instance
// digest, the tuple length and a few length-prefixed tuple values. A
// longer tuple spills to the heap and hashes the same bytes.
const digestBuf = 256

// Digest returns a canonical digest of the pointed instance: two
// pointed instances with equal schemas, equal fact sets and equal
// distinguished tuples have equal digests, and (up to hash collisions
// of SHA-256) conversely. Once the instance's own digest is memoized
// (see Instance.Fingerprint), Digest allocates nothing for tuples of
// ordinary length.
//
// Note that the digest identifies instances up to equality, not up to
// isomorphism: value names matter. That is the right granularity for
// memoizing homomorphism checks, cores and products, whose outputs also
// depend on the concrete value names.
func (p Pointed) Digest() Digest {
	var buf [digestBuf]byte
	b := append(buf[:0], p.I.Fingerprint()...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p.Tuple)))
	for _, a := range p.Tuple {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(a)))
		b = append(b, a...)
	}
	return sha256.Sum256(b)
}

// Fingerprint returns Digest as a raw 32-byte string.
func (p Pointed) Fingerprint() string {
	d := p.Digest()
	return string(d[:])
}

// Fingerprint returns the canonical digest of the instance alone (its
// schema and fact set); see Pointed.Fingerprint. The digest is computed
// lazily and memoized like the lookup indexes (so, like them, it is not
// safe to race with concurrent mutation).
func (in *Instance) Fingerprint() string {
	if in.fp == "" {
		h := sha256.New()
		writeInstance(h, in)
		in.fp = string(h.Sum(nil))
	}
	return in.fp
}

func writeInstance(w io.Writer, in *Instance) {
	// Schema: relations sorted by name with arities, count-prefixed so
	// the schema and fact sections cannot blur into each other.
	rels := in.sch.Relations()
	writeUint(w, uint64(len(rels)))
	for _, r := range rels {
		writeString(w, r.Name)
		writeUint(w, uint64(r.Arity))
	}
	// Facts: every component is length-prefixed, so the encoding is
	// structurally injective even for values containing separator or
	// control bytes (which CheckValue rejects on the parse paths, but
	// programmatic construction does not enforce).
	keys := make([]string, 0, len(in.facts))
	for k := range in.facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	writeUint(w, uint64(len(keys)))
	for _, k := range keys {
		f := in.facts[k]
		writeString(w, f.Rel)
		writeUint(w, uint64(len(f.Args)))
		for _, a := range f.Args {
			writeString(w, string(a))
		}
	}
}

func writeUint(w io.Writer, n uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], n)
	w.Write(buf[:])
}

// writeString writes a length-prefixed string, making concatenated
// writes unambiguous.
func writeString(w io.Writer, s string) {
	writeUint(w, uint64(len(s)))
	io.WriteString(w, s)
}

// ---------------------------------------------------------------------
// Context-carried product cache
// ---------------------------------------------------------------------

// ProductCache memoizes direct products of pointed instances. The cache
// is consulted by ProductCtx with the key of the two (validated)
// operands, DigestPair(a, b), computed once per product; the methods
// may be called concurrently, so implementations must be safe for
// concurrent use, and GetProduct must return an instance the caller may
// freely use (i.e. one not shared with other callers). The querying
// job's context is passed through so implementations can attribute
// traffic (hits, misses, spill fault-ins) to the job's trace recorder.
type ProductCache interface {
	GetProduct(ctx context.Context, key PairDigest) (Pointed, bool)
	PutProduct(ctx context.Context, key PairDigest, prod Pointed)
}

// productCacheKey is the context key under which a ProductCache travels.
// The cache is per-context rather than process-wide, so concurrently
// live engines never see each other's entries.
type productCacheKey struct{}

// WithProductCache returns a context carrying c; ProductCtx and
// ProductAllCtx consult it. A nil c returns ctx unchanged.
func WithProductCache(ctx context.Context, c ProductCache) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, productCacheKey{}, c)
}

// productCacheFrom extracts the product cache carried by ctx, or nil.
func productCacheFrom(ctx context.Context) ProductCache {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(productCacheKey{}).(ProductCache)
	return c
}
