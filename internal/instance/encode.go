package instance

import (
	"encoding/binary"
	"fmt"

	"extremalcq/internal/schema"
)

// This file adds a versioned, self-contained binary encoding of pointed
// instances, used by the engine's memo-spill layer to persist core
// results and direct products across process restarts. The encoding
// carries the schema inline, so a record decodes without any
// out-of-band context; the version byte lets the format evolve without
// misdecoding old records (a decoder seeing an unknown version errors,
// and the caller treats the record as a miss).

// pointedEncodingVersion is the current EncodeBinary format version.
const pointedEncodingVersion = 1

// EncodeBinary renders the pointed instance in the versioned binary
// format decoded by DecodePointed:
//
//	u8      version (1)
//	uvarint relation count, then per relation: string name, uvarint arity
//	uvarint fact count, then per fact: string rel, uvarint nargs, args
//	uvarint tuple length, then the distinguished values
//
// where "string" is a uvarint length followed by the bytes. Facts are
// written in canonical (sorted-key) order, so equal pointed instances
// have equal encodings.
func (p Pointed) EncodeBinary() []byte {
	buf := []byte{pointedEncodingVersion}
	appendString := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	rels := p.I.sch.Relations()
	buf = binary.AppendUvarint(buf, uint64(len(rels)))
	for _, r := range rels {
		appendString(r.Name)
		buf = binary.AppendUvarint(buf, uint64(r.Arity))
	}
	facts := p.I.Facts()
	buf = binary.AppendUvarint(buf, uint64(len(facts)))
	for _, f := range facts {
		appendString(f.Rel)
		buf = binary.AppendUvarint(buf, uint64(len(f.Args)))
		for _, a := range f.Args {
			appendString(string(a))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Tuple)))
	for _, a := range p.Tuple {
		appendString(string(a))
	}
	return buf
}

// DecodePointed parses an EncodeBinary record. Malformed or
// version-skewed input yields an error, never a panic or an over-read;
// the decoded facts are re-validated against the decoded schema, so a
// record that decodes cleanly is a well-formed pointed instance.
func DecodePointed(data []byte) (Pointed, error) {
	if len(data) == 0 {
		return Pointed{}, fmt.Errorf("instance: decode: empty input")
	}
	if data[0] != pointedEncodingVersion {
		return Pointed{}, fmt.Errorf("instance: decode: unknown version %d", data[0])
	}
	d := NewDecoder(data[1:])
	// One string copy of the record backs every decoded name: relation
	// names and values slice it instead of allocating a string each.
	text := string(data)
	str := func() (string, error) {
		b, err := d.bytes()
		end := len(data) - len(d.buf)
		return text[end-len(b) : end], err
	}
	nRels, err := d.Count(1)
	if err != nil {
		return Pointed{}, err
	}
	rels := make([]schema.Relation, 0, nRels)
	for i := uint64(0); i < nRels; i++ {
		name, err := str()
		if err != nil {
			return Pointed{}, err
		}
		arity, err := d.Uvarint()
		if err != nil {
			return Pointed{}, err
		}
		if arity > uint64(maxKeyArity) {
			return Pointed{}, fmt.Errorf("instance: decode: arity %d out of range", arity)
		}
		rels = append(rels, schema.Relation{Name: name, Arity: int(arity)})
	}
	sch, err := schema.New(rels...)
	if err != nil {
		return Pointed{}, fmt.Errorf("instance: decode: %w", err)
	}
	nFacts, err := d.Count(1)
	if err != nil {
		return Pointed{}, err
	}
	in := &Instance{sch: sch, facts: make(map[string]Fact, nFacts), adom: make(map[Value]bool, nFacts)}
	for i := uint64(0); i < nFacts; i++ {
		rel, err := str()
		if err != nil {
			return Pointed{}, err
		}
		nArgs, err := d.Count(1)
		if err != nil {
			return Pointed{}, err
		}
		args := make([]Value, 0, nArgs)
		for j := uint64(0); j < nArgs; j++ {
			a, err := str()
			if err != nil {
				return Pointed{}, err
			}
			args = append(args, Value(a))
		}
		// addFact re-validates relation, arity and non-empty values
		// against the decoded schema (product values legitimately contain
		// the pairing characters, so CheckValue does not apply here).
		if err := in.addFact(Fact{Rel: rel, Args: args}); err != nil {
			return Pointed{}, fmt.Errorf("instance: decode: %w", err)
		}
	}
	nTuple, err := d.Count(1)
	if err != nil {
		return Pointed{}, err
	}
	tuple := make([]Value, 0, nTuple)
	for i := uint64(0); i < nTuple; i++ {
		a, err := str()
		if err != nil {
			return Pointed{}, err
		}
		if a == "" {
			return Pointed{}, fmt.Errorf("instance: decode: empty distinguished value")
		}
		tuple = append(tuple, Value(a))
	}
	if err := d.End(); err != nil {
		return Pointed{}, err
	}
	return Pointed{I: in, Tuple: tuple}, nil
}

// maxKeyArity bounds a decoded relation arity; far above any real
// schema, far below anything that could make AddFact allocate wildly.
const maxKeyArity = 1 << 16

// Decoder is a bounds-checked cursor over untrusted encoded bytes,
// shared by this module's binary decoders (DecodePointed here,
// hom.DecodeMemoEntry): every read is validated against the remaining
// input, so malformed data yields an error, never a panic or an
// over-read.
type Decoder struct {
	buf []byte
}

// NewDecoder returns a cursor over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Uvarint reads one varint-encoded unsigned integer.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("instance: decode: bad uvarint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

// Count reads an element count whose elements each occupy at least
// minElemBytes of the remaining input; a larger count is corruption,
// not data (the cap keeps hostile counts from driving allocations).
func (d *Decoder) Count(minElemBytes int) (uint64, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf))/uint64(minElemBytes) {
		return 0, fmt.Errorf("instance: decode: count %d exceeds %d remaining bytes", n, len(d.buf))
	}
	return n, nil
}

// String reads one length-prefixed string.
func (d *Decoder) String() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// bytes reads one length-prefixed string without copying it out of the
// input.
func (d *Decoder) bytes() ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)) {
		return nil, fmt.Errorf("instance: decode: string of %d bytes exceeds %d remaining", n, len(d.buf))
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b, nil
}

// End reports an error unless the input has been fully consumed.
func (d *Decoder) End() error {
	if len(d.buf) != 0 {
		return fmt.Errorf("instance: decode: %d trailing bytes", len(d.buf))
	}
	return nil
}
