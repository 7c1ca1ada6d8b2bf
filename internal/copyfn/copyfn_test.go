package copyfn

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"currency/internal/relation"
)

func fixtures(t *testing.T) (*relation.TemporalInstance, *relation.TemporalInstance) {
	t.Helper()
	tgtSchema := relation.MustSchema("Dept", "dname", "mgrAddr", "budget")
	tgt := relation.NewTemporal(tgtSchema)
	tgt.MustAdd(relation.Tuple{relation.S("R&D"), relation.S("2 Small St"), relation.I(6500)})
	tgt.MustAdd(relation.Tuple{relation.S("R&D"), relation.S("6 Main St"), relation.I(6000)})

	srcSchema := relation.MustSchema("Emp", "eid", "address", "salary")
	src := relation.NewTemporal(srcSchema)
	src.MustAdd(relation.Tuple{relation.S("e1"), relation.S("2 Small St"), relation.I(50)})
	src.MustAdd(relation.Tuple{relation.S("e1"), relation.S("6 Main St"), relation.I(80)})
	src.MustAdd(relation.Tuple{relation.S("e2"), relation.S("8 Drum St"), relation.I(55)})
	return tgt, src
}

func TestValidateCopyingCondition(t *testing.T) {
	tgt, src := fixtures(t)
	cf := New("rho", "Dept", "Emp", []string{"mgrAddr"}, []string{"address"})
	cf.Set(0, 0)
	cf.Set(1, 1)
	if err := cf.Validate(tgt, src); err != nil {
		t.Fatal(err)
	}
	// Value mismatch breaks the copying condition.
	bad := cf.Clone()
	bad.Set(0, 2)
	if err := bad.Validate(tgt, src); err == nil {
		t.Error("copying-condition violation accepted")
	}
	// Out-of-range indexes rejected.
	oor := New("rho", "Dept", "Emp", []string{"mgrAddr"}, []string{"address"})
	oor.Set(9, 0)
	if err := oor.Validate(tgt, src); err == nil {
		t.Error("out-of-range target accepted")
	}
	// Mismatched signature lengths rejected.
	sig := New("rho", "Dept", "Emp", []string{"mgrAddr", "budget"}, []string{"address"})
	if _, err := sig.AttrPairs(tgt.Schema, src.Schema); err == nil {
		t.Error("ragged signature accepted")
	}
	// Copying into the EID attribute rejected.
	eid := New("rho", "Dept", "Emp", []string{"dname"}, []string{"address"})
	if _, err := eid.AttrPairs(tgt.Schema, src.Schema); err == nil {
		t.Error("EID target attribute accepted")
	}
}

func TestCoversAllAttrs(t *testing.T) {
	tgt, _ := fixtures(t)
	partial := New("p", "Dept", "Emp", []string{"mgrAddr"}, []string{"address"})
	if partial.CoversAllAttrs(tgt.Schema) {
		t.Error("partial signature reported covering")
	}
	full := New("f", "Dept", "Emp", []string{"mgrAddr", "budget"}, []string{"address", "salary"})
	if !full.CoversAllAttrs(tgt.Schema) {
		t.Error("covering signature reported partial")
	}
}

func TestCompatRulesAndCompatible(t *testing.T) {
	tgt, src := fixtures(t)
	cf := New("rho", "Dept", "Emp", []string{"mgrAddr"}, []string{"address"})
	cf.Set(0, 0) // t0 <- s0 (e1)
	cf.Set(1, 1) // t1 <- s1 (e1)
	rules, err := cf.CompatRules(tgt, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two directed pairs (t0,t1) and (t1,t0), one correlated attribute.
	if len(rules) != 2 {
		t.Fatalf("rules = %+v", rules)
	}

	tgtComp := relation.NewCompletion(tgt)
	srcComp := relation.NewCompletion(src)
	ai, _ := tgt.Schema.AttrIndex("mgrAddr")
	bi, _ := tgt.Schema.AttrIndex("budget")
	sai, _ := src.Schema.AttrIndex("address")
	ssi, _ := src.Schema.AttrIndex("salary")
	// Source: s0 ≺address s1; target mirrors on mgrAddr.
	srcComp.SetChain(sai, []int{0, 1})
	srcComp.SetChain(ssi, []int{0, 1})
	tgtComp.SetChain(ai, []int{0, 1})
	tgtComp.SetChain(bi, []int{0, 1})
	ok, err := cf.Compatible(tgtComp, srcComp)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("mirroring completion reported incompatible")
	}
	// Flip the target order: now incompatible.
	tgtComp.SetChain(ai, []int{1, 0})
	ok, err = cf.Compatible(tgtComp, srcComp)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("contradicting completion reported compatible")
	}
}

func TestCompatSkipsCrossEntitySources(t *testing.T) {
	tgt, src := fixtures(t)
	cf := New("rho", "Dept", "Emp", []string{"mgrAddr"}, []string{"address"})
	cf.Set(0, 0) // e1 source
	// Rewrite target tuple 1's address so it can copy from e2's tuple.
	tgt.Tuples[1][1] = relation.S("8 Drum St")
	cf.Set(1, 2) // e2 source
	rules, err := cf.CompatRules(tgt, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 0 {
		t.Errorf("cross-entity sources must not induce rules, got %+v", rules)
	}
}

func TestSameSourceTupleNoRule(t *testing.T) {
	tgt, src := fixtures(t)
	// Both target tuples copy from the same source tuple: the body
	// s ≺ s is unsatisfiable, so no rule may be emitted (Example 2.2 has
	// exactly this shape with ρ(t1) = ρ(t2) = s1).
	tgt.Tuples[1][1] = relation.S("2 Small St")
	cf := New("rho", "Dept", "Emp", []string{"mgrAddr"}, []string{"address"})
	cf.Set(0, 0)
	cf.Set(1, 0)
	rules, err := cf.CompatRules(tgt, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 0 {
		t.Errorf("same-source mapping must not induce rules, got %+v", rules)
	}
}

func TestPairsSortedAndLen(t *testing.T) {
	cf := New("rho", "A", "B", []string{"x"}, []string{"y"})
	cf.Set(3, 1)
	cf.Set(1, 0)
	cf.Set(2, 2)
	if cf.Len() != 3 {
		t.Errorf("Len = %d", cf.Len())
	}
	pairs := cf.Pairs()
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1][0] >= pairs[i][0] {
			t.Errorf("pairs not sorted: %v", pairs)
		}
	}
	if cf.String() == "" {
		t.Error("empty rendering")
	}
}

// bruteCompatRules is the all-pairs enumeration CompatRules replaced:
// every ordered pair of mapped entries, in target order, filtered by
// entity agreement on both sides. It is the oracle for the grouped
// derivation.
func bruteCompatRules(cf *CopyFunction, target, source *relation.TemporalInstance) []CompatRule {
	pairs, err := cf.AttrPairs(target.Schema, source.Schema)
	if err != nil {
		panic(err)
	}
	mapped := cf.Pairs()
	var rules []CompatRule
	for a := range mapped {
		for b := range mapped {
			t1, s1 := mapped[a][0], mapped[a][1]
			t2, s2 := mapped[b][0], mapped[b][1]
			if a == b || s1 == s2 || target.EID(t1) != target.EID(t2) || source.EID(s1) != source.EID(s2) {
				continue
			}
			for _, p := range pairs {
				rules = append(rules, CompatRule{SAttr: p[1], SI: s1, SJ: s2, TAttr: p[0], TI: t1, TJ: t2})
			}
		}
	}
	return rules
}

// TestCompatRulesGroupedMatchesBruteForce pins the grouped derivation to
// the all-pairs enumeration on random mappings, many-to-one ones (two
// targets sharing a source) included: same rules, same order. A keep
// filter must return exactly the brute-force rules of the accepted
// groups, still in order.
func TestCompatRulesGroupedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		tgt := relation.NewTemporal(relation.MustSchema("T", "eid", "a", "b"))
		src := relation.NewTemporal(relation.MustSchema("S", "eid", "x", "y"))
		nt, ns := 1+rng.Intn(24), 1+rng.Intn(24)
		tEnts, sEnts := 1+rng.Intn(5), 1+rng.Intn(5)
		for i := 0; i < nt; i++ {
			tgt.MustAdd(relation.Tuple{relation.S(fmt.Sprint("t", rng.Intn(tEnts))), relation.I(0), relation.I(0)})
		}
		for i := 0; i < ns; i++ {
			src.MustAdd(relation.Tuple{relation.S(fmt.Sprint("s", rng.Intn(sEnts))), relation.I(0), relation.I(0)})
		}
		cf := New("rho", "T", "S", []string{"a", "b"}, []string{"x", "y"})
		for i := 0; i < nt; i++ {
			if rng.Intn(4) != 0 {
				// Few source tuples per draw: many targets share one.
				cf.Set(i, rng.Intn(1+rng.Intn(ns)))
			}
		}
		got, err := cf.CompatRules(tgt, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteCompatRules(cf, tgt, src)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: grouped rules differ from brute force:\n got %v\nwant %v", trial, got, want)
		}

		keepT := relation.S(fmt.Sprint("t", rng.Intn(tEnts)))
		keepS := relation.S(fmt.Sprint("s", rng.Intn(sEnts)))
		keep := func(te, se relation.Value) bool { return te == keepT || se == keepS }
		got, err = cf.CompatRules(tgt, src, keep)
		if err != nil {
			t.Fatal(err)
		}
		var wantKept []CompatRule
		for _, r := range want {
			if keep(tgt.EID(r.TI), src.EID(r.SI)) {
				wantKept = append(wantKept, r)
			}
		}
		if !reflect.DeepEqual(got, wantKept) {
			t.Fatalf("trial %d: filtered rules differ:\n got %v\nwant %v", trial, got, wantKept)
		}
	}
}
