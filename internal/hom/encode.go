package hom

import (
	"fmt"

	"extremalcq/internal/instance"
)

// This file adds a versioned binary encoding of memoized hom-check
// verdicts — what a Cache stores per operand pair — used by the
// engine's memo-spill layer to persist verdicts across process
// restarts. The version byte lets the format evolve without misdecoding
// old records; a decoder seeing an unknown version errors and the
// caller treats the record as a miss.

// memoEntryVersion is the current EncodeMemoEntry format version.
const memoEntryVersion = 1

// EncodeMemoEntry renders a hom-check verdict in the versioned binary
// format decoded by DecodeMemoEntry:
//
//	u8      version (1)
//	u8      exists (0 or 1)
//	uvarint pair count, then per pair: string from, string to
//
// where "string" is a uvarint length followed by the bytes. The pairs
// are a witness, which only records written before the cache kept
// verdicts alone carry; EncodeMemoEntry writes none.
func EncodeMemoEntry(exists bool) []byte {
	buf := []byte{memoEntryVersion, 0, 0}
	if exists {
		buf[1] = 1
	}
	return buf
}

// DecodeMemoEntry parses an EncodeMemoEntry record through the shared
// bounds-checked cursor (instance.Decoder) and returns its verdict. A
// witness in the record is validated and dropped. Malformed or
// version-skewed input yields an error, never a panic or an over-read.
func DecodeMemoEntry(data []byte) (bool, error) {
	if len(data) < 2 {
		return false, fmt.Errorf("hom: decode: truncated entry")
	}
	if data[0] != memoEntryVersion {
		return false, fmt.Errorf("hom: decode: unknown version %d", data[0])
	}
	if data[1] > 1 {
		return false, fmt.Errorf("hom: decode: bad exists byte %d", data[1])
	}
	d := instance.NewDecoder(data[2:])
	// Every pair occupies at least two bytes (two length prefixes).
	nPairs, err := d.Count(2)
	if err != nil {
		return false, err
	}
	var seen map[string]bool
	if nPairs > 0 {
		seen = make(map[string]bool, nPairs)
	}
	for i := uint64(0); i < nPairs; i++ {
		from, err := d.String()
		if err != nil {
			return false, err
		}
		if _, err := d.String(); err != nil {
			return false, err
		}
		if seen[from] {
			return false, fmt.Errorf("hom: decode: duplicate source %q", from)
		}
		seen[from] = true
	}
	if err := d.End(); err != nil {
		return false, err
	}
	return data[1] == 1, nil
}
