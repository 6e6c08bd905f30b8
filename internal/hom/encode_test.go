package hom

import (
	"bytes"
	"testing"
)

// witnessEntry is a record of the format's first writers: verdict true
// with the witness a ↦ x, b ↦ y.
var witnessEntry = []byte{memoEntryVersion, 1, 2, 1, 'a', 1, 'x', 1, 'b', 1, 'y'}

func TestEncodeMemoEntryRoundTrip(t *testing.T) {
	for _, exists := range []bool{false, true} {
		enc := EncodeMemoEntry(exists)
		// A verdict is a version-1 record with zero witness pairs.
		want := []byte{memoEntryVersion, 0, 0}
		if exists {
			want[1] = 1
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("EncodeMemoEntry(%v) = %v, want %v", exists, enc, want)
		}
		got, err := DecodeMemoEntry(enc)
		if err != nil || got != exists {
			t.Fatalf("decode of %v: %v, %v", exists, got, err)
		}
	}
	// A record that carries a witness still decodes to its verdict.
	if got, err := DecodeMemoEntry(witnessEntry); err != nil || !got {
		t.Fatalf("witness-carrying record decoded to %v, %v; want true", got, err)
	}
}

func TestDecodeMemoEntryRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":            nil,
		"one byte":         {memoEntryVersion},
		"unknown version":  {99, 1, 0},
		"bad exists":       {memoEntryVersion, 2, 0},
		"truncated":        witnessEntry[:len(witnessEntry)-1],
		"trailing":         append(append([]byte(nil), witnessEntry...), 0),
		"huge pair count":  {memoEntryVersion, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"duplicate source": {memoEntryVersion, 1, 2, 1, 'a', 1, 'x', 1, 'a', 1, 'y'},
	}
	for name, data := range cases {
		if _, err := DecodeMemoEntry(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

// FuzzDecodeMemoEntry checks the decoder's contract on arbitrary bytes:
// error or success, never a panic or an over-read, and a decoded
// verdict round-trips.
func FuzzDecodeMemoEntry(f *testing.F) {
	f.Add(EncodeMemoEntry(false))
	f.Add(EncodeMemoEntry(true))
	f.Add(witnessEntry)
	f.Add([]byte{})
	f.Add([]byte{memoEntryVersion, 1, 1, 1, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		exists, err := DecodeMemoEntry(data)
		if err != nil {
			return
		}
		if got, err := DecodeMemoEntry(EncodeMemoEntry(exists)); err != nil || got != exists {
			t.Fatalf("re-decode of verdict %v gave %v, %v", exists, got, err)
		}
	})
}
