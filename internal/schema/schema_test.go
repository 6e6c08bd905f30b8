package schema

import (
	"strings"
	"testing"
)

func TestNewValid(t *testing.T) {
	s, err := New(Relation{"R", 2}, Relation{"P", 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := s.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	if a, ok := s.Arity("R"); !ok || a != 2 {
		t.Errorf("Arity(R) = %d,%v; want 2,true", a, ok)
	}
	if a, ok := s.Arity("P"); !ok || a != 1 {
		t.Errorf("Arity(P) = %d,%v; want 1,true", a, ok)
	}
	if _, ok := s.Arity("Q"); ok {
		t.Error("Arity(Q) should be absent")
	}
	if !s.Has("R") || s.Has("Q") {
		t.Error("Has misreports membership")
	}
}

func TestNewErrors(t *testing.T) {
	cases := []struct {
		name string
		rels []Relation
	}{
		{"duplicate", []Relation{{"R", 2}, {"R", 2}}},
		{"zero arity", []Relation{{"R", 0}}},
		{"negative arity", []Relation{{"R", -1}}},
		{"empty name", []Relation{{"", 1}}},
	}
	for _, c := range cases {
		if _, err := New(c.rels...); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid schema")
		}
	}()
	MustNew(Relation{"R", 0})
}

func TestRelationsSorted(t *testing.T) {
	s := MustNew(Relation{"Z", 1}, Relation{"A", 2}, Relation{"M", 3})
	names := s.Names()
	want := []string{"A", "M", "Z"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	rels := s.Relations()
	if rels[0].Name != "A" || rels[0].Arity != 2 {
		t.Errorf("Relations[0] = %v", rels[0])
	}
}

func TestMaxArityAndBinary(t *testing.T) {
	s := MustNew(Relation{"R", 2}, Relation{"P", 1})
	if s.MaxArity() != 2 {
		t.Errorf("MaxArity = %d", s.MaxArity())
	}
	if !s.Binary() {
		t.Error("schema {R/2,P/1} should be binary")
	}
	s3 := MustNew(Relation{"T", 3})
	if s3.Binary() {
		t.Error("schema {T/3} should not be binary")
	}
	var nilSchema *Schema
	if nilSchema.MaxArity() != 0 || !nilSchema.Binary() || nilSchema.Len() != 0 {
		t.Error("nil schema should behave as empty")
	}
}

func TestEqual(t *testing.T) {
	a := MustNew(Relation{"R", 2}, Relation{"P", 1})
	b := MustNew(Relation{"P", 1}, Relation{"R", 2})
	c := MustNew(Relation{"R", 2})
	d := MustNew(Relation{"R", 3}, Relation{"P", 1})
	if !a.Equal(b) {
		t.Error("a should equal b")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("a should differ from c and d")
	}
}

func TestExtend(t *testing.T) {
	a := MustNew(Relation{"R", 2})
	b, err := a.Extend(Relation{"P", 1}, Relation{"R", 2})
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if !b.Has("P") || !b.Has("R") || b.Len() != 2 {
		t.Errorf("Extend result wrong: %v", b)
	}
	if a.Has("P") {
		t.Error("Extend mutated the receiver")
	}
	if _, err := a.Extend(Relation{"R", 3}); err == nil {
		t.Error("conflicting arity should error")
	}
}

func TestString(t *testing.T) {
	s := MustNew(Relation{"R", 2}, Relation{"P", 1})
	str := s.String()
	if !strings.Contains(str, "R/2") || !strings.Contains(str, "P/1") {
		t.Errorf("String = %q", str)
	}
}

// TestEqualAllocs checks that Equal allocates nothing, whether both
// sides are one *Schema or two equal ones, and stays nil-safe.
func TestEqualAllocs(t *testing.T) {
	a := MustNew(Relation{"R", 2}, Relation{"P", 1}, Relation{"T", 3})
	b := MustNew(Relation{"T", 3}, Relation{"R", 2}, Relation{"P", 1})
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equal schemas read unequal")
	}
	if n := testing.AllocsPerRun(100, func() { a.Equal(a) }); n != 0 {
		t.Errorf("Equal on one schema allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.Equal(b) }); n != 0 {
		t.Errorf("Equal on two equal schemas allocates %.0f times, want 0", n)
	}
	var nilSchema *Schema
	empty := MustNew()
	if !nilSchema.Equal(empty) || !empty.Equal(nilSchema) || !nilSchema.Equal(nil) {
		t.Error("a nil schema must equal the empty schema")
	}
	if nilSchema.Equal(a) || a.Equal(nilSchema) {
		t.Error("a nil schema must not equal a non-empty one")
	}
}
