package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"extremalcq/internal/cq"
	"extremalcq/internal/engine"
	"extremalcq/internal/hom"
	"extremalcq/internal/instance"
	"extremalcq/internal/schema"
)

// answer is one job's outcome as cqfitd sends it: a one-shot result, a
// batch entry, or a stream's terminal frame.
type answer struct {
	Found     bool     `json:"found"`
	Queries   []string `json:"queries"`
	Error     string   `json:"error"`
	ElapsedMS float64  `json:"elapsed_ms"`
	Trace     *report  `json:"trace"`
}

// report is the part of an explain report (?debug=trace) the per-layer
// metrics aggregate.
type report struct {
	TotalMS  float64 `json:"total_ms"`
	Shared   bool    `json:"shared"`
	StoreHit bool    `json:"store_hit"`
	Phases   []struct {
		Phase  string  `json:"phase"`
		SelfMS float64 `json:"self_ms"`
	} `json:"phases"`
	Counters map[string]int64 `json:"counters"`
}

// outcome is one decoded job answer; frames holds a stream's answer
// frames in arrival order.
type outcome struct {
	job    int
	ans    answer
	frames []string
}

// decode parses a sample's raw response into one outcome per job.
func decode(s *sample) ([]outcome, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.status != 200 {
		return nil, fmt.Errorf("%s: status %d: %s", s.req.path, s.status, bytes.TrimSpace(s.resp.bytes()))
	}
	body := s.resp.bytes()
	switch s.req.path {
	case pathBatch:
		var b struct {
			Results []answer `json:"results"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, fmt.Errorf("batch response: %w", err)
		}
		if len(b.Results) != len(s.req.jobs) {
			return nil, fmt.Errorf("batch of %d jobs answered %d results", len(s.req.jobs), len(b.Results))
		}
		out := make([]outcome, len(b.Results))
		for i, a := range b.Results {
			out[i] = outcome{job: s.req.jobs[i], ans: a}
		}
		return out, nil
	case pathStream:
		o := outcome{job: s.req.jobs[0]}
		done := false
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var f struct {
				Index *int    `json:"index"`
				Query string  `json:"query"`
				Done  bool    `json:"done"`
				Trace *report `json:"trace"`
				answer
			}
			if err := json.Unmarshal(line, &f); err != nil {
				return nil, fmt.Errorf("stream frame %q: %w", line, err)
			}
			switch {
			case f.Index != nil:
				o.frames = append(o.frames, f.Query)
			case f.Done:
				o.ans, done = f.answer, true
			case f.Trace != nil:
				o.ans.Trace = f.Trace
			}
		}
		if !done {
			return nil, errors.New("stream ended without a terminal frame")
		}
		return []outcome{o}, nil
	default:
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("job response: %w", err)
		}
		return []outcome{{job: s.req.jobs[0], ans: a}}, nil
	}
}

// checker verifies answers in the benchmark's own process: every
// returned query must parse and fit its examples under direct
// homomorphism checks, and verdicts known in advance must match.
// Verdicts are cached by job content and answer (a pool job drawn again,
// or re-asked under other search bounds, answers the same way), and
// parsed examples by their text.
type checker struct {
	w        *workload
	examples map[string]instance.Pointed
	product  map[string]bool
	done     map[[32]byte]error
}

func newChecker(w *workload) *checker {
	return &checker{w: w, examples: map[string]instance.Pointed{}, product: map[string]bool{}, done: map[[32]byte]error{}}
}

func (c *checker) check(o outcome) error {
	j := c.w.jobs[o.job]
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%q\x00%q\x00%v\x00%q\x00%q\x00%s",
		j.kind, j.task, j.query, exampleTexts(j.pos), exampleTexts(j.neg),
		o.ans.Found, o.ans.Queries, o.frames, o.ans.Error)
	key := [32]byte(h.Sum(nil))
	if err, ok := c.done[key]; ok {
		return err
	}
	err := c.checkOnce(j, o)
	c.done[key] = err
	return err
}

func exampleTexts(es []example) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.text()
	}
	return out
}

func (c *checker) checkOnce(j genJob, o outcome) error {
	if o.ans.Error != "" {
		return fmt.Errorf("%s/%s: error %q", j.kind, j.task, o.ans.Error)
	}
	sch, err := engine.ParseSchema(schemaText(j.rels))
	if err != nil {
		return err
	}
	pos, err := c.parse(sch, j.pos)
	if err != nil {
		return err
	}
	neg, err := c.parse(sch, j.neg)
	if err != nil {
		return err
	}
	switch j.want {
	case wantTrue, wantFalse:
		if o.ans.Found != (j.want == wantTrue) {
			return fmt.Errorf("%s/%s: found=%v, want %v", j.kind, j.task, o.ans.Found, j.want == wantTrue)
		}
	case wantProduct:
		if want, err := c.productTest(sch, j, neg); err != nil {
			return err
		} else if o.ans.Found != want {
			return fmt.Errorf("%s/%s: found=%v but the product of the positives says %v", j.kind, j.task, o.ans.Found, want)
		}
	}
	for _, q := range append(o.frames, o.ans.Queries...) {
		if err := fits(sch, pos, neg, j.kind, q); err != nil {
			return fmt.Errorf("%s/%s: %w", j.kind, j.task, err)
		}
	}
	return nil
}

func (c *checker) parse(sch *schema.Schema, es []example) ([]instance.Pointed, error) {
	if len(c.examples) > 5000 {
		// Collections seen once (serve-2c's cold ones) would otherwise
		// pile up parsed and indexed for the whole run.
		clear(c.examples)
	}
	out := make([]instance.Pointed, len(es))
	for i, e := range es {
		text := e.text()
		p, ok := c.examples[text]
		if !ok {
			var err error
			if p, err = instance.ParsePointed(sch, text); err != nil {
				return nil, fmt.Errorf("example %q: %w", text, err)
			}
			c.examples[text] = p
		}
		out[i] = p
	}
	return out, nil
}

// productTest decides CQ fitting existence by Theorem 3.3 on the
// benchmark's own direct product of the positives: a fitting exists iff
// the product is a data example and maps into no negative.
func (c *checker) productTest(sch *schema.Schema, j genJob, neg []instance.Pointed) (bool, error) {
	prod := product(j.pos)
	text := prod.text()
	key := fmt.Sprintf("%s\x00%q", text, exampleTexts(j.neg))
	if ok, seen := c.product[key]; seen {
		return ok, nil
	}
	ok := true
	for _, v := range prod.tuple {
		ok = ok && prod.inDomain(v)
	}
	if ok {
		p, err := instance.ParsePointed(sch, text)
		if err != nil {
			return false, fmt.Errorf("product: %w", err)
		}
		for _, n := range neg {
			ok = ok && !hom.Exists(p, n)
		}
	}
	c.product[key] = ok
	return ok, nil
}

// product is the direct product of the examples: elements are tuples of
// their values (named e0, e1, ...), and R holds a tuple of elements
// whenever R holds it componentwise in every factor.
func product(es []example) example {
	// Build the product over value tuples written "a\x00b\x00c", then
	// name each tuple.
	acc := es[0]
	for _, e := range es[1:] {
		var next example
		for _, f := range acc.facts {
			for _, g := range e.facts {
				if f.rel != g.rel {
					continue
				}
				h := fact{rel: f.rel, args: make([]string, len(f.args))}
				for k := range f.args {
					h.args[k] = f.args[k] + "\x00" + g.args[k]
				}
				next.facts = append(next.facts, h)
			}
		}
		for k := range acc.tuple {
			next.tuple = append(next.tuple, acc.tuple[k]+"\x00"+e.tuple[k])
		}
		acc = next
	}
	names := map[string]string{}
	name := func(v string) string {
		if _, ok := names[v]; !ok {
			names[v] = fmt.Sprintf("e%d", len(names))
		}
		return names[v]
	}
	var out example
	for _, f := range acc.facts {
		g := fact{rel: f.rel, args: make([]string, len(f.args))}
		for k, a := range f.args {
			g.args[k] = name(a)
		}
		out.facts = append(out.facts, g)
	}
	for _, v := range acc.tuple {
		out.tuple = append(out.tuple, name(v))
	}
	return out
}

// fits checks one returned query against the job's examples. A UCQ
// ("q1 ∪ q2") fits when every positive satisfies some disjunct and no
// disjunct maps into a negative.
func fits(sch *schema.Schema, pos, neg []instance.Pointed, kind, text string) error {
	parts := []string{text}
	if kind == "ucq" {
		parts = strings.Split(text, "∪")
	}
	var exs []instance.Pointed
	for _, p := range parts {
		q, err := cq.Parse(sch, renameProductVars(strings.TrimSpace(p)))
		if err != nil {
			return fmt.Errorf("answer %q does not parse: %w", text, err)
		}
		exs = append(exs, q.Example())
	}
	for i, p := range pos {
		if !anyMaps(exs, p) {
			return fmt.Errorf("answer %q does not map into positive %d", text, i)
		}
	}
	for i, n := range neg {
		if anyMaps(exs, n) {
			return fmt.Errorf("answer %q maps into negative %d", text, i)
		}
	}
	return nil
}

func anyMaps(from []instance.Pointed, to instance.Pointed) bool {
	for _, f := range from {
		if hom.Exists(f, to) {
			return true
		}
	}
	return false
}

// renameProductVars replaces each product value ⟨a,b⟩ in a rendered
// query by a plain variable name (pv0, pv1, ...), so it re-parses.
func renameProductVars(s string) string {
	var out, token strings.Builder
	names := map[string]string{}
	depth := 0
	for _, r := range s {
		switch {
		case r == '⟨':
			depth++
			token.WriteRune(r)
		case depth > 0:
			token.WriteRune(r)
			if r == '⟩' {
				depth--
				if depth == 0 {
					name, ok := names[token.String()]
					if !ok {
						name = fmt.Sprintf("pv%d", len(names))
						names[token.String()] = name
					}
					out.WriteString(name)
					token.Reset()
				}
			}
		default:
			out.WriteRune(r)
		}
	}
	return out.String()
}
