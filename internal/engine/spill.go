package engine

import (
	"sync/atomic"

	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/store"
)

// This file threads memo spill through the engine: with
// Options.MemoSpill, entries of the per-engine memo (hom-check
// verdicts, cores, direct products) are written behind to the
// persistent store as typed records keyed by the memo's own keys (the
// canonical instance digests), and memo misses fault the persisted
// entry back in before any solver work runs. Where the result store
// only warm-serves exact job repeats, memo spill accelerates *novel*
// jobs after a restart: a job that shares sub-computations with
// anything solved before skips exactly those hom/core/product
// computations.
//
// Spilled entries share the store's segment log with results, so one
// byte budget bounds everything and whole-segment FIFO eviction plus
// compaction apply uniformly. Fault-in is lazy: nothing is preloaded at
// open, each disk hit installs into the in-memory memo (without
// re-spilling), and undecodable or version-skewed records degrade to
// ordinary misses. Hom records hold the verdict alone; records of the
// same format that also carry a witness still decode, to their verdict.

// spillSink connects a Memo to the persistent store: loads fault
// entries in on a memo miss, saves enqueue encoded entries on the
// engine's write-behind queue. All methods are safe for concurrent use.
type spillSink struct {
	store *store.Store
	// enqueue hands a pre-encoded record to the engine's write-behind
	// queue; it reports false when the record was dropped (full queue or
	// closing engine).
	enqueue func(storeWrite) bool

	faultedHom     atomic.Int64
	faultedCore    atomic.Int64
	faultedProduct atomic.Int64
	spilled        atomic.Int64
	dropped        atomic.Int64
	badRecords     atomic.Int64
}

// SpillStats is a snapshot of memo-spill activity.
type SpillStats struct {
	// FaultedHom/Core/Product count memo misses answered from the
	// persistent store instead of a solver computation.
	FaultedHom     int64 `json:"faulted_hom"`
	FaultedCore    int64 `json:"faulted_core"`
	FaultedProduct int64 `json:"faulted_product"`
	// Spilled counts memo entries enqueued for persistence; Dropped
	// counts entries discarded on a full (or closing) write-behind queue
	// — kept apart from StoreStats.DroppedWrites, which keeps meaning
	// "a completed result failed to persist" (alert-worthy, where a
	// dropped spill entry is merely a recomputable cache line).
	// BadRecords counts persisted entries that failed to decode (version
	// skew, or corruption the record framing cannot see) and were served
	// as misses; records whose CRC fails are dropped inside the store
	// before reaching the decoder and are not counted here.
	Spilled    int64 `json:"spilled"`
	Dropped    int64 `json:"dropped"`
	BadRecords int64 `json:"bad_records"`
}

// Faulted returns the total entries faulted in across all classes.
func (s SpillStats) Faulted() int64 { return s.FaultedHom + s.FaultedCore + s.FaultedProduct }

func (s *spillSink) stats() SpillStats {
	return SpillStats{
		FaultedHom:     s.faultedHom.Load(),
		FaultedCore:    s.faultedCore.Load(),
		FaultedProduct: s.faultedProduct.Load(),
		Spilled:        s.spilled.Load(),
		Dropped:        s.dropped.Load(),
		BadRecords:     s.badRecords.Load(),
	}
}

// loadHom faults a persisted hom-check verdict in; ok=false is an
// ordinary miss (absent, undecodable, or version-skewed record). A
// record that carries a witness (written before the memo kept verdicts
// only) decodes to its verdict. Fault probes use Probe, not GetKind:
// every in-memory memo miss lands here, and counting those probes as
// store misses would drown the result store's hit rate. The faulted
// counter is the installer's to bump (Memo.GetHom): concurrent misses
// on one key may each load the record, but only the goroutine that
// installs it counts a fault.
func (s *spillSink) loadHom(key []byte) (exists, ok bool) {
	val, ok := s.store.Probe(store.KindHom, key)
	if !ok {
		return false, false
	}
	exists, err := hom.DecodeMemoEntry(val)
	if err != nil {
		s.badRecords.Add(1)
		return false, false
	}
	return exists, true
}

// loadPointed faults a persisted core (kind store.KindCore) or product
// (store.KindProduct) in: it returns the decoded instance for the
// caller to serve and the record's bytes, the form the memo stores.
// Like loadHom it probes and decodes without counting — the installer
// counts.
func (s *spillSink) loadPointed(kind byte, key []byte) (instance.Pointed, []byte, bool) {
	val, ok := s.store.Probe(kind, key)
	if !ok {
		return instance.Pointed{}, nil, false
	}
	p, err := instance.DecodePointed(val)
	if err != nil {
		s.badRecords.Add(1)
		return instance.Pointed{}, nil, false
	}
	return p, val, true
}

// countFault records one installed fault for kind.
func (s *spillSink) countFault(kind byte) {
	switch kind {
	case store.KindHom:
		s.faultedHom.Add(1)
	case store.KindCore:
		s.faultedCore.Add(1)
	case store.KindProduct:
		s.faultedProduct.Add(1)
	}
}

// homRecords holds the two hom verdict records, encoded once: the
// write-behind queue and the store only read a record, so every spilled
// verdict shares one.
var homRecords = map[bool][]byte{false: hom.EncodeMemoEntry(false), true: hom.EncodeMemoEntry(true)}

// save enqueues an encoded memo entry for persistence under the key's
// bytes; val is a hom verdict record, or a core's or product's stored
// bytes, which nothing mutates. The record's key string is the one
// allocation of a spilled miss.
func (s *spillSink) save(kind byte, key, val []byte) {
	if s.enqueue(storeWrite{kind: kind, key: string(key), val: val}) {
		s.spilled.Add(1)
	} else {
		s.dropped.Add(1)
	}
}
