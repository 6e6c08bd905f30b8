// Package instance implements relational instances, pointed instances and
// data examples (Section 2.1 of the paper), together with the
// order-theoretic constructions of Section 2.2: disjoint unions (least
// upper bounds), direct products (greatest lower bounds), connected
// components, and the incidence-graph notion of c-acyclicity.
package instance

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"extremalcq/internal/schema"
)

// Value is an element of the active domain of an instance. Values are
// strings; the characters '⟨', '⟩' and ',' are reserved for the pairing
// used by direct products and may not appear in user-supplied values.
type Value string

// reservedRunes are the characters reserved for product tuples.
const reservedRunes = "⟨⟩"

// CheckValue reports whether v is admissible as a user-supplied value.
// Control characters are rejected because 0x1f/0x1e act as separators in
// canonical fact keys (Fact.Key): admitting them would let distinct
// facts collide.
func CheckValue(v Value) error {
	if v == "" {
		return fmt.Errorf("instance: empty value")
	}
	if strings.ContainsAny(string(v), reservedRunes+",") {
		return fmt.Errorf("instance: value %q contains a reserved character (⟨ ⟩ ,)", v)
	}
	for _, b := range []byte(v) {
		if b < 0x20 || b == 0x7f {
			return fmt.Errorf("instance: value %q contains a control character", v)
		}
	}
	return nil
}

// Fact is an atomic fact R(a1,...,an).
type Fact struct {
	Rel  string
	Args []Value
}

// NewFact builds a fact.
func NewFact(rel string, args ...Value) Fact {
	return Fact{Rel: rel, Args: append([]Value(nil), args...)}
}

// Key returns a canonical string key for the fact, used for set
// membership. It is injective because the unit separator cannot occur in
// values.
func (f Fact) Key() string {
	n := len(f.Rel)
	for _, a := range f.Args {
		n += 1 + len(a)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(f.Rel)
	for _, a := range f.Args {
		b.WriteByte(0x1f)
		b.WriteString(string(a))
	}
	return b.String()
}

// String renders the fact as R(a,b).
func (f Fact) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = string(a)
	}
	return f.Rel + "(" + strings.Join(args, ",") + ")"
}

// Contains reports whether the fact mentions v.
func (f Fact) Contains(v Value) bool {
	for _, a := range f.Args {
		if a == v {
			return true
		}
	}
	return false
}

// Map returns the fact obtained by applying h to every argument.
// Arguments not in h's domain are kept unchanged.
func (f Fact) Map(h map[Value]Value) Fact {
	args := make([]Value, len(f.Args))
	for i, a := range f.Args {
		if b, ok := h[a]; ok {
			args[i] = b
		} else {
			args[i] = a
		}
	}
	return Fact{Rel: f.Rel, Args: args}
}

// Instance is a finite set of facts over a schema. The zero value is not
// usable; construct with New. An Instance is not safe for concurrent
// mutation.
type Instance struct {
	sch   *schema.Schema
	facts map[string]Fact
	adom  map[Value]bool

	// lazily built indexes, invalidated by AddFact
	byRel    map[string][]Fact
	byRelPos map[string][]map[Value][]Fact // rel -> position -> value -> facts
	byVal    map[Value][]Fact
	fp       string // memoized canonical digest (see Fingerprint)
	// compiled holds the instance's compiled search form (see
	// Compiled), cleared by invalidate.
	compiled atomic.Value
}

// New returns an empty instance over the schema.
func New(sch *schema.Schema) *Instance {
	return &Instance{
		sch:   sch,
		facts: make(map[string]Fact),
		adom:  make(map[Value]bool),
	}
}

// FromFacts builds an instance from facts, validating each against the
// schema.
func FromFacts(sch *schema.Schema, facts ...Fact) (*Instance, error) {
	in := New(sch)
	for _, f := range facts {
		if err := in.AddFact(f.Rel, f.Args...); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// MustFromFacts is FromFacts panicking on error; for tests and fixtures.
func MustFromFacts(sch *schema.Schema, facts ...Fact) *Instance {
	in, err := FromFacts(sch, facts...)
	if err != nil {
		panic(err)
	}
	return in
}

// Schema returns the instance's schema.
func (in *Instance) Schema() *schema.Schema { return in.sch }

// AddFact adds R(args...) after validating the relation, arity and
// values. Adding an existing fact is a no-op.
func (in *Instance) AddFact(rel string, args ...Value) error {
	return in.addFact(NewFact(rel, args...))
}

// addFact is AddFact for a fact the instance may keep as it is (its
// Args are not shared with the caller).
func (in *Instance) addFact(f Fact) error {
	ar, ok := in.sch.Arity(f.Rel)
	if !ok {
		return fmt.Errorf("instance: relation %s not in schema %s", f.Rel, in.sch)
	}
	if len(f.Args) != ar {
		return fmt.Errorf("instance: %s expects %d arguments, got %d", f.Rel, ar, len(f.Args))
	}
	for _, a := range f.Args {
		if a == "" {
			return fmt.Errorf("instance: empty value in fact %s", f.Rel)
		}
	}
	in.addFactUnchecked(f)
	return nil
}

// addFactUnchecked is used internally by constructions (products,
// unions) whose outputs are valid by construction.
func (in *Instance) addFactUnchecked(f Fact) {
	k := f.Key()
	if _, dup := in.facts[k]; dup {
		return
	}
	in.facts[k] = f
	for _, a := range f.Args {
		in.adom[a] = true
	}
	in.invalidate()
}

func (in *Instance) invalidate() {
	in.byRel = nil
	in.byRelPos = nil
	in.byVal = nil
	in.fp = ""
	in.compiled = atomic.Value{}
}

// Compiled returns the compiled search form cached on the instance
// since its last mutation, or nil.
func (in *Instance) Compiled() any { return in.compiled.Load() }

// SetCompiled caches c as the instance's compiled search form unless
// one is cached already, and returns the cached form: concurrent first
// searches keep one form, and a mutation drops it. internal/compact
// owns the form's type; the instance only holds it.
func (in *Instance) SetCompiled(c any) any {
	if in.compiled.CompareAndSwap(nil, c) {
		return c
	}
	return in.compiled.Load()
}

// Has reports whether the fact is present.
func (in *Instance) Has(f Fact) bool {
	_, ok := in.facts[f.Key()]
	return ok
}

// Size returns the number of facts (|e| in the paper).
func (in *Instance) Size() int { return len(in.facts) }

// DomSize returns |adom(I)|.
func (in *Instance) DomSize() int { return len(in.adom) }

// InDom reports whether v is in the active domain.
func (in *Instance) InDom(v Value) bool { return in.adom[v] }

// Dom returns the active domain, sorted.
func (in *Instance) Dom() []Value {
	out := make([]Value, 0, len(in.adom))
	for v := range in.adom {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Facts returns all facts in a deterministic order.
func (in *Instance) Facts() []Fact {
	keys := make([]string, 0, len(in.facts))
	for k := range in.facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Fact, 0, len(keys))
	for _, k := range keys {
		out = append(out, in.facts[k])
	}
	return out
}

// FactsWith returns the facts of rel whose position pos holds value v.
func (in *Instance) FactsWith(rel string, pos int, v Value) []Fact {
	in.buildByRelPos()
	m := in.byRelPos[rel]
	if pos >= len(m) {
		return nil
	}
	return m[pos][v]
}

// FactsContaining returns all facts mentioning v.
func (in *Instance) FactsContaining(v Value) []Fact {
	in.buildByVal()
	return in.byVal[v]
}

// BuildIndexes builds every lazily computed lookup index and the
// fingerprint up front. Reads of an instance otherwise write those
// fields on first use, so an instance shared by concurrent readers
// must be built this way before it is shared, and never mutated
// afterwards.
func (in *Instance) BuildIndexes() {
	in.buildByRel()
	in.buildByRelPos()
	in.buildByVal()
	in.Fingerprint()
}

func (in *Instance) buildByRel() {
	if in.byRel != nil {
		return
	}
	in.byRel = make(map[string][]Fact)
	for _, f := range in.Facts() {
		in.byRel[f.Rel] = append(in.byRel[f.Rel], f)
	}
}

func (in *Instance) buildByRelPos() {
	if in.byRelPos != nil {
		return
	}
	in.byRelPos = make(map[string][]map[Value][]Fact)
	for _, f := range in.Facts() {
		m, ok := in.byRelPos[f.Rel]
		if !ok {
			ar, _ := in.sch.Arity(f.Rel)
			m = make([]map[Value][]Fact, ar)
			for i := range m {
				m[i] = make(map[Value][]Fact)
			}
			in.byRelPos[f.Rel] = m
		}
		for i, a := range f.Args {
			m[i][a] = append(m[i][a], f)
		}
	}
}

func (in *Instance) buildByVal() {
	if in.byVal != nil {
		return
	}
	in.byVal = make(map[Value][]Fact)
	for _, f := range in.Facts() {
		seen := map[Value]bool{}
		for _, a := range f.Args {
			if !seen[a] {
				in.byVal[a] = append(in.byVal[a], f)
				seen[a] = true
			}
		}
	}
}

// Clone returns a deep copy.
func (in *Instance) Clone() *Instance {
	out := New(in.sch)
	for k, f := range in.facts {
		out.facts[k] = f
	}
	for v := range in.adom {
		out.adom[v] = true
	}
	return out
}

// Restrict returns the induced subinstance on the value set keep: all
// facts whose arguments all lie in keep.
func (in *Instance) Restrict(keep map[Value]bool) *Instance {
	out := New(in.sch)
	for _, f := range in.facts {
		all := true
		for _, a := range f.Args {
			if !keep[a] {
				all = false
				break
			}
		}
		if all {
			out.addFactUnchecked(f)
		}
	}
	return out
}

// MapValues returns the homomorphic image of the instance under h
// (values outside h are kept). The result may merge values.
func (in *Instance) MapValues(h map[Value]Value) *Instance {
	out := New(in.sch)
	for _, f := range in.facts {
		out.addFactUnchecked(f.Map(h))
	}
	return out
}

// Rename returns a copy with every value v replaced by prefix+v. Useful
// to make instances disjoint.
func (in *Instance) Rename(prefix string) *Instance {
	h := make(map[Value]Value, len(in.adom))
	for v := range in.adom {
		h[v] = Value(prefix) + v
	}
	return in.MapValues(h)
}

// Equal reports fact-set equality (not isomorphism).
func (in *Instance) Equal(other *Instance) bool {
	if in.Size() != other.Size() {
		return false
	}
	for k := range in.facts {
		if _, ok := other.facts[k]; !ok {
			return false
		}
	}
	return true
}

// String renders the facts sorted, comma-separated, in braces.
func (in *Instance) String() string {
	fs := in.Facts()
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
