// Package schema defines relational schemas: finite sets of relation
// symbols with associated arities (Section 2.1 of the paper).
//
// A schema is immutable after construction. All instances, data examples
// and conjunctive queries in this module are built over a schema and
// validate their facts and atoms against it.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Relation is a relation symbol together with its arity.
type Relation struct {
	Name  string
	Arity int
}

// Schema is a finite set of relation symbols with arities. The zero value
// is an empty schema; use New to build a non-empty one.
type Schema struct {
	arities map[string]int
	names   []string // sorted, for deterministic iteration
}

// New builds a schema from the given relations. It rejects duplicate
// names, empty names, and non-positive arities (the paper requires
// arity(R) >= 1).
func New(rels ...Relation) (*Schema, error) {
	s := &Schema{arities: make(map[string]int, len(rels))}
	for _, r := range rels {
		if r.Name == "" {
			return nil, fmt.Errorf("schema: empty relation name")
		}
		if r.Arity < 1 {
			return nil, fmt.Errorf("schema: relation %s has arity %d; arities must be >= 1", r.Name, r.Arity)
		}
		if _, dup := s.arities[r.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate relation %s", r.Name)
		}
		s.arities[r.Name] = r.Arity
		s.names = append(s.names, r.Name)
	}
	sort.Strings(s.names)
	return s, nil
}

// MustNew is like New but panics on error. Intended for tests, examples
// and package-level fixtures where the schema is a literal.
func MustNew(rels ...Relation) *Schema {
	s, err := New(rels...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity reports the arity of relation name and whether it is in the schema.
func (s *Schema) Arity(name string) (int, bool) {
	if s == nil {
		return 0, false
	}
	a, ok := s.arities[name]
	return a, ok
}

// Has reports whether the schema contains the relation.
func (s *Schema) Has(name string) bool {
	_, ok := s.Arity(name)
	return ok
}

// Relations returns the relations sorted by name.
func (s *Schema) Relations() []Relation {
	if s == nil {
		return nil
	}
	out := make([]Relation, 0, len(s.names))
	for _, n := range s.names {
		out = append(out, Relation{Name: n, Arity: s.arities[n]})
	}
	return out
}

// Names returns the relation names sorted.
func (s *Schema) Names() []string {
	if s == nil {
		return nil
	}
	return append([]string(nil), s.names...)
}

// Len returns the number of relation symbols.
func (s *Schema) Len() int {
	if s == nil {
		return 0
	}
	return len(s.names)
}

// MaxArity returns the maximum arity over all relations (0 for an empty
// schema).
func (s *Schema) MaxArity() int {
	m := 0
	if s == nil {
		return 0
	}
	for _, a := range s.arities {
		if a > m {
			m = a
		}
	}
	return m
}

// Binary reports whether every relation has arity 1 or 2. Tree CQs
// (Section 5) are only defined over binary schemas.
func (s *Schema) Binary() bool {
	if s == nil {
		return true
	}
	for _, a := range s.arities {
		if a > 2 {
			return false
		}
	}
	return true
}

// Equal reports whether two schemas have the same relations and
// arities. It allocates nothing, and one schema equals itself at once:
// every hom search asks.
func (s *Schema) Equal(t *Schema) bool {
	if s == t {
		return true
	}
	if s.Len() != t.Len() {
		return false
	}
	if s.Len() == 0 {
		return true
	}
	for _, n := range s.names {
		a2, ok := t.arities[n]
		if !ok || s.arities[n] != a2 {
			return false
		}
	}
	return true
}

// Extend returns a new schema with the relations of s plus the given
// extras. It fails on conflicts (same name, different arity); repeating a
// relation with identical arity is allowed and ignored.
func (s *Schema) Extend(extras ...Relation) (*Schema, error) {
	rels := s.Relations()
	for _, r := range extras {
		if a, ok := s.Arity(r.Name); ok {
			if a != r.Arity {
				return nil, fmt.Errorf("schema: conflicting arity for %s: %d vs %d", r.Name, a, r.Arity)
			}
			continue
		}
		rels = append(rels, r)
	}
	return New(rels...)
}

// String renders the schema as "{R/2, P/1}".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range s.Names() {
		if i > 0 {
			b.WriteString(", ")
		}
		a, _ := s.Arity(n)
		fmt.Fprintf(&b, "%s/%d", n, a)
	}
	b.WriteByte('}')
	return b.String()
}
