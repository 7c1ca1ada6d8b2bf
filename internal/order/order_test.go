package order

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPairSetBasics(t *testing.T) {
	ps := NewPairSet()
	ps.Add(1, 2)
	ps.Add(1, 2)
	ps.Add(2, 3)
	if ps.Len() != 2 {
		t.Fatalf("Len = %d", ps.Len())
	}
	if !ps.Has(1, 2) || ps.Has(2, 1) {
		t.Error("Has misreports")
	}
	pairs := ps.Pairs()
	if len(pairs) != 2 || pairs[0] != (Pair{1, 2}) || pairs[1] != (Pair{2, 3}) {
		t.Errorf("Pairs = %v", pairs)
	}
	nodes := ps.Nodes()
	if len(nodes) != 3 || nodes[0] != 1 || nodes[2] != 3 {
		t.Errorf("Nodes = %v", nodes)
	}
	clone := ps.Clone()
	clone.Add(5, 6)
	if ps.Has(5, 6) {
		t.Error("Clone shares storage")
	}
	other := NewPairSet()
	other.Add(1, 2)
	if !other.ContainedIn(ps) || ps.ContainedIn(other) {
		t.Error("ContainedIn misreports")
	}
	other.Add(2, 3)
	if !ps.Equal(other) {
		t.Error("Equal misreports")
	}
	sub := ps.Restrict([]int{1, 2})
	if sub.Len() != 1 || !sub.Has(1, 2) {
		t.Errorf("Restrict = %v", sub.Pairs())
	}
}

func TestTransitiveClosure(t *testing.T) {
	ps := NewPairSet()
	ps.Add(1, 2)
	ps.Add(2, 3)
	ps.Add(3, 4)
	tc := ps.TransitiveClosure()
	for _, want := range []Pair{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}} {
		if !tc.Has(want.A, want.B) {
			t.Errorf("closure misses %v", want)
		}
	}
	if tc.Len() != 6 {
		t.Errorf("closure has %d pairs, want 6", tc.Len())
	}
}

// TestClosureIdempotent property-checks closure(closure(R)) == closure(R)
// and R ⊆ closure(R) on random DAG-ish relations.
func TestClosureIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ps := NewPairSet()
		n := 2 + rng.Intn(6)
		for k := 0; k < n*2; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b { // keep it acyclic
				ps.Add(a, b)
			}
		}
		tc := ps.TransitiveClosure()
		return ps.ContainedIn(tc) && tc.Equal(tc.TransitiveClosure())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHasCycle(t *testing.T) {
	ps := NewPairSet()
	ps.Add(1, 2)
	ps.Add(2, 3)
	if ps.HasCycle() {
		t.Error("acyclic relation reported cyclic")
	}
	ps.Add(3, 1)
	if !ps.HasCycle() {
		t.Error("cycle missed")
	}
	self := NewPairSet()
	self.Add(4, 4)
	if !self.HasCycle() {
		t.Error("self-loop missed")
	}
}

func TestIsStrictPartialOrderOn(t *testing.T) {
	ps := NewPairSet()
	ps.Add(1, 2)
	ps.Add(2, 3)
	if err := ps.IsStrictPartialOrderOn([]int{1, 2, 3}); err != nil {
		t.Error(err)
	}
	ps.Add(3, 1)
	if err := ps.IsStrictPartialOrderOn([]int{1, 2, 3}); err == nil {
		t.Error("cycle accepted")
	}
	// The cycle lies outside the restriction.
	if err := ps.IsStrictPartialOrderOn([]int{1, 2}); err != nil {
		t.Error(err)
	}
}

func TestLinearExtensions(t *testing.T) {
	ps := NewPairSet()
	ps.Add(0, 1) // 0 before 1; 2 free
	var exts [][]int
	ps.LinearExtensions([]int{0, 1, 2}, func(e []int) bool {
		exts = append(exts, append([]int(nil), e...))
		return true
	})
	if len(exts) != 3 {
		t.Fatalf("%d extensions, want 3", len(exts))
	}
	for _, e := range exts {
		pos := map[int]int{}
		for i, n := range e {
			pos[n] = i
		}
		if pos[0] > pos[1] {
			t.Errorf("extension %v violates 0<1", e)
		}
	}
	if got := ps.CountLinearExtensions([]int{0, 1, 2}); got != 3 {
		t.Errorf("CountLinearExtensions = %d", got)
	}
	// Cyclic restriction yields no extensions.
	cyc := NewPairSet()
	cyc.Add(0, 1)
	cyc.Add(1, 0)
	if got := cyc.CountLinearExtensions([]int{0, 1}); got != 0 {
		t.Errorf("cyclic extensions = %d", got)
	}
	// Empty relation on n nodes yields n! extensions.
	empty := NewPairSet()
	if got := empty.CountLinearExtensions([]int{0, 1, 2, 3}); got != 24 {
		t.Errorf("4! = %d", got)
	}
}

// TestLinearExtensionCountFormula property-checks a chain of length k
// among n free elements: count = n!/k!.
func TestLinearExtensionCountFormula(t *testing.T) {
	fact := func(n int) int {
		out := 1
		for i := 2; i <= n; i++ {
			out *= i
		}
		return out
	}
	for n := 1; n <= 5; n++ {
		for k := 1; k <= n; k++ {
			ps := NewPairSet()
			nodes := make([]int, n)
			for i := range nodes {
				nodes[i] = i
			}
			for i := 0; i+1 < k; i++ {
				ps.Add(i, i+1)
			}
			want := fact(n) / fact(k)
			if got := ps.CountLinearExtensions(nodes); got != want {
				t.Errorf("n=%d k=%d: %d extensions, want %d", n, k, got, want)
			}
		}
	}
}

// TestExtensionsRespectAllPairs property-checks that every enumerated
// extension respects every closed pair.
func TestExtensionsRespectAllPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		ps := NewPairSet()
		for k := 0; k < n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b {
				ps.Add(a, b)
			}
		}
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
		closed := ps.TransitiveClosure()
		ok := true
		ps.LinearExtensions(nodes, func(e []int) bool {
			pos := make(map[int]int, len(e))
			for i, node := range e {
				pos[node] = i
			}
			for _, p := range closed.Pairs() {
				if pos[p.A] > pos[p.B] {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRemapMatchesRebuild checks PairSet.Remap against the rebuild it
// replaces (Range over the old set, Add of every surviving renumbered
// pair): same pairs in the same Range order, and a later Add on the
// remapped set touches neither the source set nor another successor
// list sharing the remap's backing slice.
func TestRemapMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(30)
		ps := NewPairSet()
		for k := rng.Intn(4 * n); k > 0; k-- {
			ps.Add(rng.Intn(n), rng.Intn(n))
		}
		// A delete-shaped index map: drop a random subset, renumber the
		// survivors in order.
		tm := make([]int, n)
		next := 0
		for i := range tm {
			if rng.Intn(3) == 0 {
				tm[i] = -1
				continue
			}
			tm[i] = next
			next++
		}
		want := NewPairSet()
		ps.Range(func(a, b int) bool {
			if tm[a] >= 0 && tm[b] >= 0 {
				want.Add(tm[a], tm[b])
			}
			return true
		})
		got := ps.Remap(tm)
		var gotSeq, wantSeq []Pair
		got.Range(func(a, b int) bool { gotSeq = append(gotSeq, Pair{a, b}); return true })
		want.Range(func(a, b int) bool { wantSeq = append(wantSeq, Pair{a, b}); return true })
		if got.Len() != want.Len() || len(gotSeq) != len(wantSeq) {
			t.Fatalf("trial %d: Remap has %d pairs (%d ranged), rebuild %d", trial, got.Len(), len(gotSeq), want.Len())
		}
		for i := range gotSeq {
			if gotSeq[i] != wantSeq[i] {
				t.Fatalf("trial %d: Range order differs at %d: %v vs %v", trial, i, gotSeq, wantSeq)
			}
		}
		if next < 2 {
			continue
		}
		before := ps.Pairs()
		a, b := rng.Intn(next), rng.Intn(next)
		got.Add(a, b)
		want.Add(a, b)
		if !got.Equal(want) {
			t.Fatalf("trial %d: Add(%d,%d) after Remap diverges from the rebuild", trial, a, b)
		}
		after := ps.Pairs()
		if len(before) != len(after) {
			t.Fatalf("trial %d: Add on the remapped set changed the source set", trial)
		}
	}
}
