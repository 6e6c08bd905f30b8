package instance

import (
	"bytes"
	"crypto/sha256"
	"io"
	"strings"
	"testing"

	"extremalcq/internal/schema"
)

var hashSchema = schema.MustNew(schema.Relation{Name: "R", Arity: 2})

func pointedOf(t *testing.T, tuple []Value, facts ...Fact) Pointed {
	t.Helper()
	in, err := FromFacts(hashSchema, facts...)
	if err != nil {
		t.Fatal(err)
	}
	return Pointed{I: in, Tuple: tuple}
}

func TestFingerprintEquality(t *testing.T) {
	p1 := pointedOf(t, []Value{"a"}, NewFact("R", "a", "b"), NewFact("R", "b", "c"))
	p2 := pointedOf(t, []Value{"a"}, NewFact("R", "b", "c"), NewFact("R", "a", "b"))
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Error("equal pointed instances must have equal fingerprints")
	}
	p3 := pointedOf(t, []Value{"b"}, NewFact("R", "a", "b"), NewFact("R", "b", "c"))
	if p1.Fingerprint() == p3.Fingerprint() {
		t.Error("different tuples must change the fingerprint")
	}
	p4 := pointedOf(t, []Value{"a"}, NewFact("R", "a", "b"))
	if p1.Fingerprint() == p4.Fingerprint() {
		t.Error("different fact sets must change the fingerprint")
	}
}

// TestFingerprintSeparatorInjectivity pins the length-prefixed encoding:
// values containing the fact-key separator bytes must not make distinct
// instances collide (even though CheckValue rejects them on the parse
// paths, programmatic construction does not).
func TestFingerprintSeparatorInjectivity(t *testing.T) {
	p1 := pointedOf(t, []Value{"a\x1fb", "c"}, NewFact("R", "x", "y"))
	p2 := pointedOf(t, []Value{"a", "b\x1fc"}, NewFact("R", "x", "y"))
	if p1.Fingerprint() == p2.Fingerprint() {
		t.Error("tuples [a\\x1fb c] and [a b\\x1fc] must not collide")
	}
	i1 := pointedOf(t, nil, NewFact("R", "a\x1eb", "c"))
	i2 := pointedOf(t, nil, NewFact("R", "a", "b\x1ec"))
	if i1.Fingerprint() == i2.Fingerprint() {
		t.Error("facts R(a\\x1eb,c) and R(a,b\\x1ec) must not collide")
	}
}

func TestFingerprintInvalidation(t *testing.T) {
	in := New(hashSchema)
	if err := in.AddFact("R", "a", "b"); err != nil {
		t.Fatal(err)
	}
	fp1 := in.Fingerprint()
	if err := in.AddFact("R", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if in.Fingerprint() == fp1 {
		t.Error("AddFact must invalidate the memoized fingerprint")
	}
}

func TestCheckValueRejectsControlCharacters(t *testing.T) {
	for _, v := range []Value{"a\x1fb", "a\x1eb", "a\nb", "\x7f"} {
		if err := CheckValue(v); err == nil {
			t.Errorf("CheckValue(%q) accepted a control character", v)
		}
	}
	if err := CheckValue("plain_value-1"); err != nil {
		t.Errorf("CheckValue rejected a plain value: %v", err)
	}
}

// TestDigestMatchesStreamedHash pins Digest to the stream the memo
// spill's on-disk keys were hashed from (the instance digest, the tuple
// length, then each length-prefixed tuple value), for tuples that fit
// Digest's stack buffer and for one that spills past it, and checks
// that a digest of an indexed instance allocates nothing.
func TestDigestMatchesStreamedHash(t *testing.T) {
	long := make([]Value, 12)
	for i := range long {
		long[i] = Value(strings.Repeat("v", 20+i))
	}
	for _, p := range []Pointed{
		pointedOf(t, nil, NewFact("R", "a", "b")),
		pointedOf(t, []Value{"a", "zz"}, NewFact("R", "a", "b"), NewFact("R", "b", "c")),
		pointedOf(t, long, NewFact("R", "a", "b")),
	} {
		h := sha256.New()
		io.WriteString(h, p.I.Fingerprint())
		writeUint(h, uint64(len(p.Tuple)))
		for _, a := range p.Tuple {
			writeString(h, string(a))
		}
		d := p.Digest()
		if want := h.Sum(nil); !bytes.Equal(d[:], want) || p.Fingerprint() != string(want) {
			t.Errorf("%v: digest %x, want %x", p, d, want)
		}
	}
	p := pointedOf(t, []Value{"a"}, NewFact("R", "a", "b"))
	q := pointedOf(t, []Value{"b"}, NewFact("R", "b", "c"))
	p.I.BuildIndexes()
	q.I.BuildIndexes()
	if n := testing.AllocsPerRun(100, func() { DigestPair(p, q) }); n != 0 {
		t.Errorf("DigestPair allocates %.1f per call, want 0", n)
	}
}
