// Package store is a persistent, content-addressed result store: an
// append-only log of (key, value) records split across CRC-checked
// segment files, with an in-memory index from key to the newest record.
// The fitting engine keys it by canonical job fingerprints, so a
// restarted process serves previously-computed answers from disk
// instead of re-running solvers whose outputs the source paper shows
// can be exponential-size to recompute.
//
// # File format
//
// A store directory holds numbered segment files ("00000001.seg", ...).
// Each segment is a sequence of records:
//
//	u32  payload length (little endian)
//	u32  CRC-32 (IEEE) of the payload
//	payload:
//	    u8   record kind (see KindResult, KindHom, KindCore, KindProduct)
//	    u16  key length (little endian)
//	    key bytes (binary-safe; fingerprints are raw digests)
//	    value bytes
//
// Record kinds are disjoint keyspaces sharing one log: completed job
// results (KindResult, the original and only kind before memo spill)
// live next to spilled memo entries — homomorphism-check verdicts
// (KindHom), core results (KindCore) and direct products (KindProduct)
// — keyed by canonical instance fingerprints. All kinds share the
// segment rotation, the byte budget (whole-segment FIFO eviction) and
// compaction, so one knob bounds the disk footprint of everything.
//
// Writes append to the newest (active) segment; when it reaches the
// rotation threshold a fresh segment is started. Re-putting a key
// appends a new record and the index moves to it, leaving the old
// record as dead bytes.
//
// # Recovery
//
// Open replays every segment in order, newest record per key winning.
// A record that cannot be read back intact — a torn tail from a crash
// mid-append, or a CRC mismatch from bit rot — truncates its segment at
// the last intact record instead of failing the open: everything before
// the damage stays served, everything after it in that segment is
// dropped (later segments are unaffected), and the store is immediately
// writable again. The store is a cache of recomputable answers, so
// dropping unreadable suffixes is always safe.
//
// # Space bounds
//
// Options.MaxBytes bounds the total on-disk size: when the log grows
// past it, whole oldest segments are evicted (FIFO) together with their
// index entries. When more than half of the retained bytes are dead
// (overwritten records), the store compacts: live records are rewritten
// into a single fresh segment via an atomic rename, so a crash during
// compaction leaves either the old segments or the new one, never a
// half state.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrClosed is reported by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Record kinds. Each kind is its own keyspace: a KindHom record never
// shadows a KindResult record under the same key. Unknown kinds are
// treated as corruption during replay (the segment is truncated there),
// which is the versioning story for the record framing itself; the
// values carry their own version bytes for in-place format evolution.
const (
	KindResult  byte = 1 // completed job results (keyed by job fingerprint)
	KindHom     byte = 2 // memoized homomorphism-check verdicts
	KindCore    byte = 3 // memoized core results
	KindProduct byte = 4 // memoized direct products

	minKind = KindResult
	maxKind = KindProduct
)

// KindName renders a record kind for stats and metrics labels.
func KindName(kind byte) string {
	switch kind {
	case KindResult:
		return "result"
	case KindHom:
		return "hom"
	case KindCore:
		return "core"
	case KindProduct:
		return "product"
	}
	return fmt.Sprintf("kind%d", kind)
}

const (
	headerSize = 8       // u32 payload length + u32 CRC
	maxKeyLen  = 1 << 16 // keys are length-prefixed with a u16

	// maxPayload rejects absurd length headers during recovery (a
	// corrupt length field would otherwise demand a huge read).
	maxPayload = 64 << 20

	segSuffix = ".seg"
)

// Options configures a Store. The zero value selects an unbounded store
// with the default segment size.
type Options struct {
	// MaxBytes bounds the total size of the segment files; exceeding it
	// evicts whole oldest segments. <= 0 means unbounded.
	MaxBytes int64
	// SegmentBytes is the rotation threshold for the active segment;
	// <= 0 derives it from MaxBytes (MaxBytes/8 clamped to [64KiB,
	// 8MiB], or 8MiB when unbounded).
	SegmentBytes int64
	// NoAutoCompact disables the dead-bytes-triggered compaction;
	// Compact may still be called explicitly.
	NoAutoCompact bool
}

// Stats is a point-in-time snapshot of store activity and size.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	PutErrors int64 `json:"put_errors"`
	// Entries is the number of live keys across all record kinds;
	// KindEntries breaks it down per kind ("result", "hom", "core",
	// "product"; kinds with zero live keys are omitted). Bytes is the
	// total segment-file size on disk; DeadBytes the portion of Bytes
	// holding overwritten records (reclaimed by compaction).
	Entries     int            `json:"entries"`
	KindEntries map[string]int `json:"kind_entries,omitempty"`
	Segments    int            `json:"segments"`
	Bytes       int64          `json:"bytes"`
	DeadBytes   int64          `json:"dead_bytes"`
	// EvictedSegments counts whole segments dropped by the MaxBytes
	// budget; Compactions counts live-record rewrites (CompactErrors
	// the auto-compactions that failed and left the log as-is);
	// RecoveredTruncations counts segments cut back at Open because of
	// a torn or corrupt record. RemoveErrors counts retired segment or
	// temp files whose unlink failed: the store's in-memory state moves
	// on regardless (the file is already sealed and dead), but disk is
	// no longer shrinking, so a monitor watching this counter is the
	// difference between a slow leak and a silent one.
	EvictedSegments      int64 `json:"evicted_segments"`
	Compactions          int64 `json:"compactions"`
	CompactErrors        int64 `json:"compact_errors"`
	RecoveredTruncations int64 `json:"recovered_truncations"`
	RemoveErrors         int64 `json:"remove_errors"`
}

// segment is one open log file.
type segment struct {
	num  uint64
	f    *os.File
	size int64
	dead int64 // bytes of overwritten records within this segment
}

// recordRef locates the newest record for a key.
type recordRef struct {
	seg uint64
	off int64 // record start (header) within the segment
	n   int64 // total record length including header
}

// Store is a persistent key→value log. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	// lock is the held directory lock file; one process owns a store
	// directory at a time.
	lock *os.File

	mu     sync.Mutex
	closed bool
	segs   map[uint64]*segment
	order  []uint64 // segment numbers, ascending; last is active
	// index maps kind-prefixed keys (see indexKey) to the newest record;
	// kindCount tracks live keys per kind for Stats.
	index     map[string]recordRef
	kindCount [maxKind + 1]int
	bytes     int64
	dead      int64
	// compacting is set while a compaction's I/O phase runs outside the
	// lock; it pins the snapshot segments (eviction skips, a second
	// compaction declines).
	compacting bool

	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	putErrors atomic.Int64

	evicted       atomic.Int64
	compactions   atomic.Int64
	compactErrors atomic.Int64
	truncations   atomic.Int64
	removeErrors  atomic.Int64
}

// removeFile unlinks a retired segment or temp file, counting (not
// propagating) failure: by the time a file is removed its records are
// dead and the in-memory state has moved on, so the only correct
// reaction is to surface the leak through Stats.RemoveErrors.
func (s *Store) removeFile(path string) {
	if err := os.Remove(path); err != nil {
		s.removeErrors.Add(1)
	}
}

// Open opens (creating if necessary) the store rooted at dir and
// replays its segments into the in-memory index, truncating torn or
// corrupt suffixes (see the package comment on recovery). The
// directory is locked for the lifetime of the store (where the
// platform supports it): a second process opening the same directory
// gets a clean error instead of the two silently interleaving appends.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = deriveSegmentBytes(opts.MaxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		lock:  lock,
		segs:  make(map[uint64]*segment),
		index: make(map[string]recordRef),
	}
	nums, err := listSegments(dir)
	if err != nil {
		s.closeAll()
		return nil, err
	}
	for _, num := range nums {
		if err := s.loadSegment(num); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	if len(s.order) == 0 {
		if err := s.addSegment(1); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	return s, nil
}

func deriveSegmentBytes(maxBytes int64) int64 {
	const (
		lo  = 64 << 10
		hi  = 8 << 20
		def = int64(hi)
	)
	if maxBytes <= 0 {
		return def
	}
	sb := maxBytes / 8
	if sb < lo {
		return lo
	}
	if sb > hi {
		return hi
	}
	return sb
}

func segName(num uint64) string { return fmt.Sprintf("%08d%s", num, segSuffix) }

func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var nums []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != segSuffix {
			continue
		}
		var num uint64
		// Only canonical names count (Sscanf's %08d also matches
		// "1.seg", which segName would render differently and
		// loadSegment could not reopen).
		if _, err := fmt.Sscanf(name, "%08d"+segSuffix, &num); err != nil || num == 0 || name != segName(num) {
			continue // not ours; leave it alone
		}
		nums = append(nums, num)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums, nil
}

// loadSegment opens segment num, replays its records into the index and
// truncates it at the first unreadable record.
func (s *Store) loadSegment(num uint64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(num)), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seg := &segment{num: num, f: f}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	fileSize := fi.Size()

	// Register the segment before replay so overwrites landing in it
	// (including self-overwrites) are charged to its dead counter.
	s.segs[num] = seg
	s.order = append(s.order, num)

	var off int64
	var header [headerSize]byte
	for off < fileSize {
		ikey, n, ok := readRecord(f, off, fileSize, header[:])
		if !ok {
			// Torn or corrupt record: cut the segment back to its last
			// intact record. Record boundaries are untrustworthy past
			// this point, so the rest of this segment is dropped.
			if err := f.Truncate(off); err != nil {
				// The caller's closeAll releases the registered handle.
				return fmt.Errorf("store: truncating %s at %d: %w", segName(num), off, err)
			}
			s.truncations.Add(1)
			break
		}
		s.setIndexLocked(ikey, recordRef{seg: num, off: off, n: n})
		off += n
	}
	seg.size = off
	s.bytes += off
	return nil
}

// indexKey prefixes a record key with its kind byte, making the index a
// single map over disjoint per-kind keyspaces.
func indexKey(kind byte, key string) string {
	return string([]byte{kind}) + key
}

// readRecord parses the record at off; ok=false reports a torn or
// corrupt record. On success ikey is the record's kind-prefixed index
// key and n its total length.
func readRecord(f *os.File, off, fileSize int64, header []byte) (ikey string, n int64, ok bool) {
	if fileSize-off < headerSize {
		return "", 0, false
	}
	if _, err := f.ReadAt(header, off); err != nil {
		return "", 0, false
	}
	payloadLen := int64(binary.LittleEndian.Uint32(header[0:4]))
	crc := binary.LittleEndian.Uint32(header[4:8])
	if payloadLen < 3 || payloadLen > maxPayload || fileSize-off-headerSize < payloadLen {
		return "", 0, false
	}
	payload := make([]byte, payloadLen)
	if _, err := f.ReadAt(payload, off+headerSize); err != nil {
		return "", 0, false
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return "", 0, false
	}
	if payload[0] < minKind || payload[0] > maxKind {
		return "", 0, false
	}
	keyLen := int64(binary.LittleEndian.Uint16(payload[1:3]))
	if 3+keyLen > payloadLen {
		return "", 0, false
	}
	return indexKey(payload[0], string(payload[3:3+keyLen])), headerSize + payloadLen, true
}

// setIndexLocked points ikey at ref, retiring any record it supersedes
// and keeping the per-kind live counts current.
func (s *Store) setIndexLocked(ikey string, ref recordRef) {
	if old, exists := s.index[ikey]; exists {
		s.retire(old)
	} else {
		s.kindCount[ikey[0]]++
	}
	s.index[ikey] = ref
}

// delIndexLocked removes ikey from the index (the record bytes are the
// caller's to account for).
func (s *Store) delIndexLocked(ikey string) {
	if _, exists := s.index[ikey]; exists {
		s.kindCount[ikey[0]]--
		delete(s.index, ikey)
	}
}

// retire marks ref's bytes dead (its key has been overwritten or is
// being dropped).
func (s *Store) retire(ref recordRef) {
	s.dead += ref.n
	if seg, ok := s.segs[ref.seg]; ok {
		seg.dead += ref.n
	}
}

// addSegment creates and activates a fresh empty segment.
func (s *Store) addSegment(num uint64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(num)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segs[num] = &segment{num: num, f: f}
	s.order = append(s.order, num)
	return nil
}

func (s *Store) active() *segment { return s.segs[s.order[len(s.order)-1]] }

// encodeRecord renders the on-disk form of one record.
func encodeRecord(kind byte, key string, value []byte) []byte {
	payloadLen := 3 + len(key) + len(value)
	buf := make([]byte, headerSize+payloadLen)
	payload := buf[headerSize:]
	payload[0] = kind
	binary.LittleEndian.PutUint16(payload[1:3], uint16(len(key)))
	copy(payload[3:], key)
	copy(payload[3+len(key):], value)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return buf
}

// Put appends a KindResult record for key, superseding any previous
// one; see PutKind.
func (s *Store) Put(key string, value []byte) error {
	return s.PutKind(KindResult, key, value)
}

// PutKind appends a record of the given kind for key, superseding any
// previous record of the same kind and key (other kinds are untouched:
// kinds are disjoint keyspaces). The write is buffered by the OS;
// rotation, compaction and Close sync, so a crash can lose only the
// most recent appends (recovered as a clean truncation).
func (s *Store) PutKind(kind byte, key string, value []byte) error {
	// Validation failures count as put errors: the engine's write-behind
	// writer relies on PutKind counting every failed persist attempt, so
	// e.g. an oversized spilled product leaves a trace instead of
	// silently never landing.
	if kind < minKind || kind > maxKind {
		s.putErrors.Add(1)
		return fmt.Errorf("store: unknown record kind %d", kind)
	}
	if key == "" || len(key) >= maxKeyLen {
		s.putErrors.Add(1)
		return fmt.Errorf("store: bad key length %d", len(key))
	}
	rec := encodeRecord(kind, key, value)
	if int64(len(rec)) > maxPayload {
		s.putErrors.Add(1)
		return fmt.Errorf("store: record of %d bytes exceeds the %d-byte bound", len(rec), maxPayload)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	seg := s.active()
	if seg.size >= s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			s.mu.Unlock()
			s.putErrors.Add(1)
			return err
		}
		seg = s.active()
	}
	if _, err := seg.f.WriteAt(rec, seg.size); err != nil {
		s.mu.Unlock()
		s.putErrors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	s.setIndexLocked(indexKey(kind, key), recordRef{seg: seg.num, off: seg.size, n: int64(len(rec))})
	seg.size += int64(len(rec))
	s.bytes += int64(len(rec))
	s.puts.Add(1)
	s.enforceBudgetLocked()
	needCompact := !s.opts.NoAutoCompact && !s.compacting &&
		s.dead > s.bytes/2 && s.dead > s.opts.SegmentBytes
	s.mu.Unlock()
	// Auto-compaction runs synchronously for the caller (the engine
	// calls Put from its write-behind goroutine, so job delivery never
	// waits on it) but with the lock released for the I/O phase, so
	// concurrent Gets proceed. Its failure is counted, not returned —
	// the put itself already succeeded and is served by later Gets.
	if needCompact {
		if err := s.Compact(); err != nil {
			s.compactErrors.Add(1)
		}
	}
	return nil
}

// rotateLocked syncs and seals the active segment and starts the next.
func (s *Store) rotateLocked() error {
	if err := s.active().f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.addSegment(s.order[len(s.order)-1] + 1)
}

// enforceBudgetLocked drops whole oldest segments while the store is
// over its byte budget. The active segment is never dropped, so a
// budget smaller than one segment degrades to keeping just the active
// log. While a compaction is in flight the snapshot segments are
// pinned, so enforcement waits for its commit.
func (s *Store) enforceBudgetLocked() {
	if s.opts.MaxBytes <= 0 || s.compacting {
		return
	}
	for s.bytes > s.opts.MaxBytes && len(s.order) > 1 {
		victim := s.segs[s.order[0]]
		for ikey, ref := range s.index {
			if ref.seg == victim.num {
				s.delIndexLocked(ikey)
			}
		}
		s.bytes -= victim.size
		s.dead -= victim.dead
		victim.f.Close()
		s.removeFile(filepath.Join(s.dir, segName(victim.num)))
		delete(s.segs, victim.num)
		s.order = s.order[1:]
		s.evicted.Add(1)
	}
}

// Get returns the newest KindResult value stored for key; see GetKind.
func (s *Store) Get(key string) ([]byte, bool) {
	return s.GetKind(KindResult, key)
}

// GetKind returns the newest value stored for key under the given
// record kind, counting the lookup in the store's hit/miss stats.
func (s *Store) GetKind(kind byte, key string) ([]byte, bool) {
	var buf [lookupKeyBuf]byte
	val, ok := s.lookup(append(append(buf[:0], kind), key...))
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return val, ok
}

// Probe is GetKind without touching the hit/miss counters, keyed by the
// key's bytes. It exists for cache layers that keep their own counters
// and probe the store on every one of their misses (the engine's memo
// fault-in): routing those probes through GetKind would drown the
// result-lookup hit rate the stats exist to report. A probe that misses
// allocates nothing.
func (s *Store) Probe(kind byte, key []byte) ([]byte, bool) {
	var buf [lookupKeyBuf]byte
	return s.lookup(append(append(buf[:0], kind), key...))
}

// lookupKeyBuf sizes the stack buffer GetKind and Probe build a
// lookup's index key (see indexKey) in: the kind byte and a key of up
// to 64 bytes, such as a memo's pair digest. A longer key spills to the
// heap and finds the same record.
const lookupKeyBuf = 1 + 64

// lookup resolves and reads the newest record under ikey, a
// kind-prefixed index key (see indexKey). The reference is resolved
// under the lock but the disk read runs outside it, so concurrent
// warm-path lookups never serialize on each other's I/O. A read racing
// an eviction or compaction that retired its file sees a closed-file
// error and degrades to a miss (the answer is merely recomputed);
// records are immutable once written, so a successful read is always
// coherent. The read is verified against the record's CRC; a record
// that fails verification (bit rot since Open) is treated as a miss and
// dropped from the index.
func (s *Store) lookup(ikey []byte) ([]byte, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	ref, ok := s.index[string(ikey)]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	f := s.segs[ref.seg].f
	s.mu.Unlock()

	buf := make([]byte, ref.n)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return nil, false
	}
	payload := buf[headerSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:8]) {
		s.drop(string(ikey), ref)
		return nil, false
	}
	keyLen := int64(binary.LittleEndian.Uint16(payload[1:3]))
	return payload[3+keyLen:], true
}

// drop removes ikey's record after a failed verification, unless a
// concurrent Put or compaction already superseded the reference (then
// the failure described a stale record and there is nothing to do).
func (s *Store) drop(ikey string, ref recordRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.index[ikey]; ok && cur == ref {
		s.retire(ref)
		s.delIndexLocked(ikey)
	}
}

// compactPlan is the snapshot a compaction works from: the sealed
// segments (all numbers <= lastNum) and the live references into them
// at snapshot time. Sealed segments are immutable and pinned (no
// eviction, no second compaction) until the commit, so the I/O phase
// reads them without the store lock.
type compactPlan struct {
	lastNum uint64
	num     uint64 // number of the compacted output segment
	refs    map[string]recordRef
	files   map[uint64]*os.File
}

// Compact rewrites the live records of all sealed segments into a
// single fresh segment, reclaiming dead bytes. The store lock is held
// only to take the snapshot and to commit: the bulk read/write/sync
// runs unlocked, so concurrent Gets and Puts proceed (Puts land in the
// fresh active segment and win over their compacted copies). The new
// segment is renamed into place before the old segments are removed,
// so a crash mid-compaction leaves a readable store — at worst with
// duplicate records, which replay resolves newest-wins. A second
// Compact while one is in flight is a no-op.
func (s *Store) Compact() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.compacting || (len(s.order) == 1 && s.dead == 0) {
		s.mu.Unlock()
		return nil
	}
	plan, err := s.beginCompactLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.finishCompact(plan)
}

// beginCompactLocked seals the current segments (the active one is
// synced and a fresh active started), reserves the output segment
// number between the sealed range and the new active, snapshots the
// live references, and pins everything by setting compacting.
func (s *Store) beginCompactLocked() (*compactPlan, error) {
	lastNum := s.order[len(s.order)-1]
	if err := s.active().f.Sync(); err != nil {
		return nil, fmt.Errorf("store: compact: %w", err)
	}
	// lastNum+1 is the compacted output (must replay before any record
	// written during the compaction), lastNum+2 the new active.
	if err := s.addSegment(lastNum + 2); err != nil {
		return nil, err
	}
	p := &compactPlan{
		lastNum: lastNum,
		num:     lastNum + 1,
		refs:    make(map[string]recordRef, len(s.index)),
		files:   make(map[uint64]*os.File, len(s.order)-1),
	}
	for key, ref := range s.index {
		if ref.seg <= lastNum {
			p.refs[key] = ref
		}
	}
	for num, seg := range s.segs {
		if num <= lastNum {
			p.files[num] = seg.f
		}
	}
	s.compacting = true
	return p, nil
}

// finishCompact streams the snapshot's records into a temp file,
// renames it into place (the commit point) and swaps the store's state
// over to it, retiring the sealed segments.
func (s *Store) finishCompact(p *compactPlan) error {
	tmpPath := filepath.Join(s.dir, "compact.tmp")
	fail := func(tmp *os.File, err error) error {
		if tmp != nil {
			tmp.Close()
			s.removeFile(tmpPath)
		}
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
		return fmt.Errorf("store: compact: %w", err)
	}
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fail(nil, err)
	}
	newRefs := make(map[string]recordRef, len(p.refs))
	var off int64
	for key, ref := range p.refs {
		buf := make([]byte, ref.n)
		if _, err := p.files[ref.seg].ReadAt(buf, ref.off); err != nil {
			return fail(tmp, err)
		}
		if _, err := tmp.WriteAt(buf, off); err != nil {
			return fail(tmp, err)
		}
		newRefs[key] = recordRef{seg: p.num, off: off, n: ref.n}
		off += ref.n
	}
	if err := tmp.Sync(); err != nil {
		return fail(tmp, err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, segName(p.num))); err != nil {
		return fail(tmp, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacting = false
	if s.closed {
		// Commit raced Close: the sealed segments are intact on disk and
		// the compacted file only duplicates them, so the next Open
		// replays correctly either way.
		tmp.Close()
		return ErrClosed
	}
	newSeg := &segment{num: p.num, f: tmp, size: off}
	s.segs[p.num] = newSeg
	s.bytes += off
	// Point still-live keys at their compacted copies. A key
	// overwritten (or dropped) during the I/O phase keeps its newer
	// state; its compacted copy is dead on arrival.
	for key, nref := range newRefs {
		if cur, ok := s.index[key]; ok && cur.seg <= p.lastNum {
			s.index[key] = nref
		} else {
			s.dead += nref.n
			newSeg.dead += nref.n
		}
	}
	// Retire the sealed segments.
	for num := range p.files {
		seg := s.segs[num]
		seg.f.Close()
		s.removeFile(filepath.Join(s.dir, segName(num)))
		s.bytes -= seg.size
		s.dead -= seg.dead
		delete(s.segs, num)
	}
	s.order = s.order[:0]
	for num := range s.segs {
		s.order = append(s.order, num)
	}
	sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	s.compactions.Add(1)
	return nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.active().f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close syncs the active segment and releases all file handles. Further
// operations report ErrClosed (Get degrades to a miss).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.active().f.Sync()
	s.closeAll()
	s.closed = true
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func (s *Store) closeAll() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
	if s.lock != nil {
		s.lock.Close() // releases the directory lock
		s.lock = nil
	}
}

// Stats returns a snapshot of the counters and sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries := len(s.index)
	segments := len(s.order)
	bytes, dead := s.bytes, s.dead
	var kinds map[string]int
	for kind, n := range s.kindCount {
		if n > 0 {
			if kinds == nil {
				kinds = make(map[string]int)
			}
			kinds[KindName(byte(kind))] = n
		}
	}
	s.mu.Unlock()
	return Stats{
		KindEntries:          kinds,
		Hits:                 s.hits.Load(),
		Misses:               s.misses.Load(),
		Puts:                 s.puts.Load(),
		PutErrors:            s.putErrors.Load(),
		Entries:              entries,
		Segments:             segments,
		Bytes:                bytes,
		DeadBytes:            dead,
		EvictedSegments:      s.evicted.Load(),
		Compactions:          s.compactions.Load(),
		CompactErrors:        s.compactErrors.Load(),
		RecoveredTruncations: s.truncations.Load(),
		RemoveErrors:         s.removeErrors.Load(),
	}
}

var _ io.Closer = (*Store)(nil)
