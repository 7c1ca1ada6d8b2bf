// Package order provides strict-partial-order machinery over integer nodes:
// pair sets, transitive closure, cycle detection, and linear-extension
// enumeration. Currency orders in the paper are strict partial orders per
// attribute over the tuples of an entity; this package supplies the shared
// algorithmic substrate.
package order

import (
	"fmt"
	"sort"
)

// Pair is an ordered pair (A ≺ B): A is less current, B is more current.
type Pair struct {
	A, B int
}

// PairSet is a set of ordered pairs representing a binary relation over
// non-negative integer nodes (tuple positions, throughout this
// codebase). The representation is a dense adjacency index — succ[a]
// lists the direct successors of a — rather than a pair-keyed map:
// every traversal (Range, Pairs, Succ, the delta remap in spec) walks
// slices without hashing or sort-on-read, and membership probes scan
// the source's successor list, which per-entity currency orders keep
// short. The zero value is not ready; use NewPairSet.
type PairSet struct {
	succ [][]int // succ[a] = direct successors of a, insertion-ordered
	n    int     // pair count
}

// NewPairSet returns an empty pair set.
func NewPairSet() *PairSet { return &PairSet{} }

// succOf returns a's successor list, nil when a is out of range.
func (ps *PairSet) succOf(a int) []int {
	if a < 0 || a >= len(ps.succ) {
		return nil
	}
	return ps.succ[a]
}

// Add inserts the pair (a ≺ b). Adding an existing pair is a no-op.
// Reflexive pairs (a == b) are inserted as given; use HasCycle or
// IsStrictPartialOrder to detect them as violations.
func (ps *PairSet) Add(a, b int) {
	for _, x := range ps.succOf(a) {
		if x == b {
			return
		}
	}
	if a >= len(ps.succ) {
		if a < cap(ps.succ) {
			ps.succ = ps.succ[:a+1]
		} else {
			grown := make([][]int, a+1, 2*(a+1))
			copy(grown, ps.succ)
			ps.succ = grown
		}
	}
	ps.succ[a] = append(ps.succ[a], b)
	ps.n++
}

// Has reports whether (a ≺ b) is in the set.
func (ps *PairSet) Has(a, b int) bool {
	for _, x := range ps.succOf(a) {
		if x == b {
			return true
		}
	}
	return false
}

// Len returns the number of pairs.
func (ps *PairSet) Len() int { return ps.n }

// Succ returns the direct successors of node a (b with a ≺ b).
func (ps *PairSet) Succ(a int) []int { return ps.succOf(a) }

// Range calls f for every pair, stopping early when f returns false.
// Iteration is by ascending source node, successors in insertion order
// — no materialized pair slice, no sorting (compare Pairs).
func (ps *PairSet) Range(f func(a, b int) bool) {
	for a, ss := range ps.succ {
		for _, b := range ss {
			if !f(a, b) {
				return
			}
		}
	}
}

// Pairs returns all pairs sorted by (A, B) for deterministic iteration.
// Prefer Range when order does not matter.
func (ps *PairSet) Pairs() []Pair {
	out := make([]Pair, 0, ps.n)
	ps.Range(func(a, b int) bool {
		out = append(out, Pair{a, b})
		return true
	})
	// Sources arrive ascending; only successors within a source need
	// ordering.
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Clone returns a deep copy.
func (ps *PairSet) Clone() *PairSet {
	out := &PairSet{succ: make([][]int, len(ps.succ)), n: ps.n}
	for a, ss := range ps.succ {
		if len(ss) > 0 {
			out.succ[a] = append([]int(nil), ss...)
		}
	}
	return out
}

// Remap returns the pair set renumbered through tm (old node -> new
// node, -1 = node removed), dropping every pair with a removed endpoint.
// tm must be injective on kept nodes and preserve their relative order
// — the shape of a tuple-delete index map — so successor lists keep
// their insertion order and no duplicate can arise. The result is built
// directly over one backing slice, with no per-pair Add; each successor
// list is capacity-limited, so a later Add reallocates that list alone
// instead of writing into its neighbour's.
func (ps *PairSet) Remap(tm []int) *PairSet {
	kept, width := 0, 0
	for a, ss := range ps.succ {
		if len(ss) == 0 || tm[a] < 0 {
			continue
		}
		for _, b := range ss {
			if tm[b] >= 0 {
				kept++
				width = tm[a] + 1
			}
		}
	}
	out := &PairSet{n: kept}
	if kept == 0 {
		return out
	}
	backing := make([]int, 0, kept)
	out.succ = make([][]int, width)
	for a, ss := range ps.succ {
		if len(ss) == 0 || tm[a] < 0 {
			continue
		}
		start := len(backing)
		for _, b := range ss {
			if nb := tm[b]; nb >= 0 {
				backing = append(backing, nb)
			}
		}
		if len(backing) > start {
			out.succ[tm[a]] = backing[start:len(backing):len(backing)]
		}
	}
	return out
}

// AddAll inserts every pair of other into ps.
func (ps *PairSet) AddAll(other *PairSet) {
	other.Range(func(a, b int) bool {
		ps.Add(a, b)
		return true
	})
}

// ContainedIn reports whether every pair of ps occurs in other.
func (ps *PairSet) ContainedIn(other *PairSet) bool {
	ok := true
	ps.Range(func(a, b int) bool {
		ok = other.Has(a, b)
		return ok
	})
	return ok
}

// Equal reports set equality.
func (ps *PairSet) Equal(other *PairSet) bool {
	return ps.Len() == other.Len() && ps.ContainedIn(other)
}

// Nodes returns all nodes mentioned by some pair, sorted ascending.
func (ps *PairSet) Nodes() []int {
	seen := make(map[int]bool)
	var out []int
	ps.Range(func(a, b int) bool {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
		return true
	})
	sort.Ints(out)
	return out
}

// Restrict returns the subset of pairs whose both endpoints lie in nodes.
func (ps *PairSet) Restrict(nodes []int) *PairSet {
	in := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		in[n] = true
	}
	out := NewPairSet()
	ps.Range(func(a, b int) bool {
		if in[a] && in[b] {
			out.Add(a, b)
		}
		return true
	})
	return out
}

// TransitiveClosure returns the transitive closure of the relation. The
// closure of a relation with a directed cycle contains reflexive pairs;
// callers detect inconsistency via HasCycle on the result.
func (ps *PairSet) TransitiveClosure() *PairSet {
	out := ps.Clone()
	// Repeated BFS from each source node; pair sets in this library are
	// small (per-entity groups), so simplicity wins over Warshall indexing.
	for _, src := range ps.Nodes() {
		reach := make(map[int]bool)
		stack := append([]int(nil), out.succOf(src)...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[n] {
				continue
			}
			reach[n] = true
			stack = append(stack, out.succOf(n)...)
		}
		for n := range reach {
			out.Add(src, n)
		}
	}
	return out
}

// HasCycle reports whether the relation's transitive closure contains a
// reflexive pair, i.e., whether the underlying directed graph has a cycle
// (including self-loops).
func (ps *PairSet) HasCycle() bool {
	// Colour-based DFS cycle detection.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make(map[int]int)
	var visit func(n int) bool
	visit = func(n int) bool {
		colour[n] = grey
		for _, m := range ps.succOf(n) {
			switch colour[m] {
			case grey:
				return true
			case white:
				if visit(m) {
					return true
				}
			}
		}
		colour[n] = black
		return false
	}
	for _, n := range ps.Nodes() {
		if colour[n] == white {
			if visit(n) {
				return true
			}
		}
	}
	return false
}

// IsStrictPartialOrderOn verifies that the relation, restricted to nodes,
// is irreflexive and acyclic (and hence extends to a strict partial order
// by transitive closure). It returns a descriptive error otherwise.
func (ps *PairSet) IsStrictPartialOrderOn(nodes []int) error {
	sub := ps.Restrict(nodes)
	var refl *Pair
	sub.Range(func(a, b int) bool {
		if a == b {
			refl = &Pair{a, b}
			return false
		}
		return true
	})
	if refl != nil {
		return fmt.Errorf("order: reflexive pair %d ≺ %d", refl.A, refl.B)
	}
	if sub.HasCycle() {
		return fmt.Errorf("order: relation contains a cycle")
	}
	return nil
}

// LinearExtensions enumerates every linear extension of the relation
// restricted to nodes, i.e., every permutation of nodes compatible with the
// given pairs, least-current first. It returns nil if the restriction is
// cyclic. The callback receives each extension; returning false stops the
// enumeration early. The slice passed to the callback is reused; callers
// must copy it if they retain it.
func (ps *PairSet) LinearExtensions(nodes []int, yield func(ext []int) bool) {
	n := len(nodes)
	pos := make(map[int]int, n)
	for i, node := range nodes {
		pos[node] = i
	}
	// indegree within the restriction
	indeg := make([]int, n)
	succ := make([][]int, n)
	ps.Range(func(a, b int) bool {
		ai, aok := pos[a]
		bi, bok := pos[b]
		if aok && bok {
			succ[ai] = append(succ[ai], bi)
			indeg[bi]++
		}
		return true
	})
	ext := make([]int, 0, n)
	used := make([]bool, n)
	var rec func() bool
	rec = func() bool {
		if len(ext) == n {
			return yield(ext)
		}
		for i := 0; i < n; i++ {
			if used[i] || indeg[i] != 0 {
				continue
			}
			used[i] = true
			for _, j := range succ[i] {
				indeg[j]--
			}
			ext = append(ext, nodes[i])
			if !rec() {
				return false
			}
			ext = ext[:len(ext)-1]
			for _, j := range succ[i] {
				indeg[j]++
			}
			used[i] = false
		}
		return true
	}
	rec()
}

// CountLinearExtensions counts the linear extensions of the relation
// restricted to nodes (0 if the restriction is cyclic).
func (ps *PairSet) CountLinearExtensions(nodes []int) int {
	count := 0
	ps.LinearExtensions(nodes, func([]int) bool {
		count++
		return true
	})
	return count
}
