package compact

import (
	"math/bits"
	"slices"
)

// This file is the search's one root check beyond GAC: Hall's
// condition on must-differ cliques. Two source variables must differ
// when they share a fact at positions i and j and the target relation
// holds no row with equal values at i and j: every homomorphism maps
// them to different values. A homomorphism is then injective on a set S
// of pairwise must-differ variables, and GAC keeps every solution in
// the domains, so the domains of S together hold at least |S| values.
// When they hold fewer, no homomorphism exists. That is the pigeonhole
// refutation of K7 → K6, which GAC alone cannot find, since every edge
// of an irreflexive clique is arc consistent; Régin's all-different
// filter (AAAI 1994) is the complete, matching-based form of the check.
//
// The check runs once, on the root's GAC fixpoint (see run). It grows
// one greedy clique per variable, each step adding the neighbour that
// brings the fewest new values, and skips a variable whose degree
// cannot outgrow its domain. It only reads the domains, so a search it
// does not refute keeps its exact tree.

// maxDifferArity is the widest relation whose position pairs fit a
// differ mask's 64 bits; a wider relation adds no must-differ edges.
const maxDifferArity = 8

// differPairs returns rd's differ mask: bit 8i+j for each position pair
// i < j at which no row holds equal values.
func differPairs(rd *relData) uint64 {
	ar := rd.arity
	if ar > maxDifferArity {
		return 0
	}
	var m uint64
	for i := 0; i < ar; i++ {
		for j := i + 1; j < ar; j++ {
			m |= 1 << (8*i + j)
		}
	}
	for row := 0; row < rd.nrows; row++ {
		if m == 0 {
			break
		}
		vals := rd.row(row)
		//cqlint:ignore ctxloop -- clears one bit per iteration; at most 28 position pairs
		for p := m; p != 0; p &= p - 1 {
			if b := bits.TrailingZeros64(p); vals[b/8] == vals[b%8] {
				m &^= 1 << b
			}
		}
	}
	return m
}

// hall reports whether Hall's condition refutes the search at the
// searcher's domains, a GAC fixpoint that every solution lies in: it
// looks for a set of pairwise must-differ variables whose domains
// together hold fewer values than it has members. After a root
// propagation that succeeds every source fact has a target relation.
// The graph and the clique state live in the searcher's scratch, in
// space linear in the source's must-differ incidences.
func (s *searcher) hall() bool {
	r, sc := s.r, s.sc
	facts := r.src.facts

	// A member v of a refuting set S has |dom(v)| ≤ |⋃ dom(S)| < |S| ≤
	// degree(v) + 1. So a variable whose must-differ incidences, which
	// bound its degree from above, are fewer than its domain's values is
	// in no such set. The others are the candidates, numbered in
	// variable order; idx maps a variable to its number, or -1, and off
	// sizes each candidate's neighbour list by its incidences.
	idx := resize(sc.hallIdx, r.nv)
	clear(idx)
	for fi := range facts {
		f := &facts[fi]
		//cqlint:ignore ctxloop -- clears one bit per iteration; at most 28 position pairs
		for p := r.rel(fi).differ; p != 0; p &= p - 1 {
			if b := bits.TrailingZeros64(p); f.args[b/8] != f.args[b%8] {
				idx[f.args[b/8]]++
				idx[f.args[b%8]]++
			}
		}
	}
	vars, off := sc.hallVars[:0], append(sc.hallOff[:0], 0)
	for v, n := range idx {
		if int(n) < s.count(v) {
			idx[v] = -1
			continue
		}
		idx[v] = int32(len(vars))
		vars = append(vars, uint32(v))
		off = append(off, off[len(vars)-1]+uint32(n))
	}
	sc.hallIdx, sc.hallVars, sc.hallOff = idx, vars, off
	m := len(vars)
	if m < 2 {
		return false
	}

	// The must-differ graph on the candidates: candidate a's neighbours,
	// sorted and each once, are nbr[off[a] : off[a]+deg[a]].
	nbr, deg := resize(sc.hallNbr, int(off[m])), resize(sc.hallDeg, m)
	clear(deg)
	for fi := range facts {
		f := &facts[fi]
		//cqlint:ignore ctxloop -- clears one bit per iteration; at most 28 position pairs
		for p := r.rel(fi).differ; p != 0; p &= p - 1 {
			b := bits.TrailingZeros64(p)
			if a, c := idx[f.args[b/8]], idx[f.args[b%8]]; a >= 0 && c >= 0 && a != c {
				nbr[off[a]+deg[a]], nbr[off[c]+deg[c]] = uint32(c), uint32(a)
				deg[a]++
				deg[c]++
			}
		}
	}
	for a := range deg {
		row := nbr[off[a] : off[a]+deg[a]]
		slices.Sort(row)
		deg[a] = uint32(len(slices.Compact(row)))
	}

	// One greedy clique per candidate v, of size members whose domains
	// hold n values together, in union. open lists the candidates
	// adjacent to every member; the clique stops growing once they
	// cannot lift it past n.
	union := resize(sc.hallUnion, r.words)
	sc.hallNbr, sc.hallDeg, sc.hallUnion = nbr, deg, union
	for a, v := range vars {
		s.checkpoint()
		n := s.count(int(v))
		if int(deg[a])+1 <= n {
			continue
		}
		open := append(sc.hallOpen[:0], nbr[off[a]:off[a]+deg[a]]...)
		sc.hallOpen = open
		copy(union, s.domain(int(v)))
		//cqlint:ignore ctxloop -- each step moves one candidate from open into the clique; at most m steps
		for size := 1; size+len(open) > n; {
			best, bestN := uint32(0), -1
			for _, u := range open {
				if k := unionCount(union, s.domain(int(vars[u]))); bestN < 0 || k < bestN {
					best, bestN = u, k
				}
			}
			for i, w := range s.domain(int(vars[best])) {
				union[i] |= w
			}
			open = intersect(open, nbr[off[best]:off[best]+deg[best]])
			if size, n = size+1, bestN; size > n {
				return true
			}
		}
	}
	return false
}

// intersect keeps the members of the sorted list a that the sorted
// list b holds, in a's storage.
func intersect(a, b []uint32) []uint32 {
	out, j := a[:0], 0
	for _, x := range a {
		//cqlint:ignore ctxloop -- advances through b, a finite list
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			out = append(out, x)
		}
	}
	return out
}

// ones returns the number of bits set in ws.
func ones(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// unionCount returns the number of bits set in a | b.
func unionCount(a, b []uint64) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w | b[i])
	}
	return n
}
