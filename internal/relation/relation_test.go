package relation

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestValueBasics(t *testing.T) {
	if S("a") == S("b") || S("a") != S("a") {
		t.Error("string value equality broken")
	}
	if I(1) == I(2) || I(1) != I(1) {
		t.Error("int value equality broken")
	}
	if S("1") == I(1) {
		t.Error("values of different kinds must differ")
	}
	if Fresh(1) == Fresh(2) || Fresh(1) != Fresh(1) {
		t.Error("fresh value equality broken")
	}
	if !Fresh(3).IsFresh() || S("x").IsFresh() || I(3).IsFresh() {
		t.Error("IsFresh misreports")
	}
	if S("abc").String() != `"abc"` || I(-4).String() != "-4" {
		t.Errorf("String renders %s / %s", S("abc"), I(-4))
	}
	if S("abc").Display() != "abc" {
		t.Errorf("Display renders %s", S("abc").Display())
	}
}

// TestValueCompareIsTotalOrder property-checks Compare: antisymmetry and
// transitivity over random values.
func TestValueCompareIsTotalOrder(t *testing.T) {
	mk := func(kind uint8, s string, i int64) Value {
		switch kind % 3 {
		case 0:
			return S(s)
		case 1:
			return I(i)
		default:
			return Fresh(i % 5)
		}
	}
	antisym := func(k1 uint8, s1 string, i1 int64, k2 uint8, s2 string, i2 int64) bool {
		a, b := mk(k1, s1, i1), mk(k2, s2, i2)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	trans := func(k1 uint8, s1 string, i1 int64, k2 uint8, s2 string, i2 int64, k3 uint8, s3 string, i3 int64) bool {
		a, b, c := mk(k1, s1, i1), mk(k2, s2, i2), mk(k3, s3, i3)
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Error(err)
	}
	reflexive := func(k uint8, s string, i int64) bool {
		v := mk(k, s, i)
		return v.Compare(v) == 0
	}
	if err := quick.Check(reflexive, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", "eid"); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema("R"); err == nil {
		t.Error("empty attribute list accepted")
	}
	if _, err := NewSchema("R", "a", "a"); err == nil {
		t.Error("duplicate attribute accepted")
	}
	sc := MustSchema("R", "eid", "A", "B")
	if sc.Arity() != 3 || sc.EIDAttr() != "eid" {
		t.Errorf("unexpected schema: %v", sc)
	}
	if idx, ok := sc.AttrIndex("B"); !ok || idx != 2 {
		t.Errorf("AttrIndex(B) = %d, %v", idx, ok)
	}
	if _, ok := sc.AttrIndex("missing"); ok {
		t.Error("AttrIndex found a missing attribute")
	}
	non := sc.NonEIDIndexes()
	if len(non) != 2 || non[0] != 1 || non[1] != 2 {
		t.Errorf("NonEIDIndexes = %v", non)
	}
}

func TestInstanceBasics(t *testing.T) {
	sc := MustSchema("R", "eid", "A")
	d := NewInstance(sc)
	if _, err := d.Add(Tuple{S("e"), I(1), I(2)}); err == nil {
		t.Error("wrong arity accepted")
	}
	i0 := d.MustAdd(Tuple{S("e1"), I(1)})
	i1, _ := d.AddLabeled("x", Tuple{S("e1"), I(2)})
	i2 := d.MustAdd(Tuple{S("e2"), I(3)})
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.EID(i2) != S("e2") {
		t.Errorf("EID = %v", d.EID(i2))
	}
	if d.Label(i1) != "x" || d.Label(i0) != "#0" {
		t.Errorf("labels: %q %q", d.Label(i1), d.Label(i0))
	}
	if got, ok := d.LabelIndex("x"); !ok || got != i1 {
		t.Errorf("LabelIndex = %d, %v", got, ok)
	}
	groups := d.Entities()
	if len(groups) != 2 || len(groups[0].Members) != 2 || groups[0].EID != S("e1") {
		t.Errorf("Entities = %+v", groups)
	}
	if !d.Contains(Tuple{S("e1"), I(2)}) || d.Contains(Tuple{S("e1"), I(9)}) {
		t.Error("Contains misreports")
	}
	clone := d.Clone()
	clone.Tuples[0][1] = I(99)
	if d.Tuples[0][1] == I(99) {
		t.Error("Clone shares tuple storage")
	}
	if !d.Equal(d.Clone()) {
		t.Error("instance not equal to its clone")
	}
}

func TestActiveDomain(t *testing.T) {
	sc := MustSchema("R", "eid", "A")
	d := NewInstance(sc)
	d.MustAdd(Tuple{S("e"), I(2)})
	d.MustAdd(Tuple{S("e"), I(1)})
	dom := ActiveDomain(d, nil, d)
	if len(dom) != 3 { // e, 1, 2
		t.Fatalf("domain = %v", dom)
	}
	for i := 1; i < len(dom); i++ {
		if !dom[i-1].Less(dom[i]) {
			t.Errorf("domain not sorted: %v", dom)
		}
	}
}

func buildTemporal(t *testing.T) *TemporalInstance {
	t.Helper()
	sc := MustSchema("R", "eid", "A", "B")
	dt := NewTemporal(sc)
	dt.MustAdd(Tuple{S("e1"), I(1), I(10)})
	dt.MustAdd(Tuple{S("e1"), I(2), I(20)})
	dt.MustAdd(Tuple{S("e1"), I(3), I(30)})
	dt.MustAdd(Tuple{S("e2"), I(4), I(40)})
	return dt
}

func TestTemporalValidation(t *testing.T) {
	dt := buildTemporal(t)
	if err := dt.AddOrder("eid", 0, 1); err == nil {
		t.Error("order on EID accepted")
	}
	if err := dt.AddOrder("A", 0, 3); err == nil {
		t.Error("cross-entity order accepted")
	}
	if err := dt.AddOrder("A", 1, 1); err == nil {
		t.Error("reflexive order accepted")
	}
	if err := dt.AddOrder("A", 0, 9); err == nil {
		t.Error("out-of-range order accepted")
	}
	dt.MustAddOrder("A", 0, 1)
	dt.MustAddOrder("A", 1, 2)
	if err := dt.Validate(); err != nil {
		t.Fatal(err)
	}
	// A cycle inserted behind the API's back is caught by Validate.
	ai, _ := dt.Schema.AttrIndex("A")
	dt.Orders[ai].Add(2, 0)
	if err := dt.Validate(); err == nil {
		t.Error("cyclic base order accepted")
	}
}

// TestValidateNamesCyclicEntity checks that a cycle or reflexive pair
// inside one entity is reported against that entity and attribute, even
// when other entities carry valid orders.
func TestValidateNamesCyclicEntity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pairs [][2]int
	}{
		{"cycle", [][2]int{{3, 4}, {4, 5}, {5, 3}}},
		{"reflexive", [][2]int{{4, 4}}},
	} {
		dt := buildTemporal(t)
		dt.MustAdd(Tuple{S("e2"), I(5), I(50)})
		dt.MustAdd(Tuple{S("e2"), I(6), I(60)})
		dt.MustAddOrder("A", 0, 1)
		dt.MustAddOrder("B", 0, 2)
		bi, _ := dt.Schema.AttrIndex("B")
		for _, p := range tc.pairs {
			dt.Orders[bi].Add(p[0], p[1])
		}
		err := dt.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
			continue
		}
		if want := `R.B on entity "e2"`; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, want)
		}
	}
}

func TestCompletionAndLST(t *testing.T) {
	dt := buildTemporal(t)
	comp := NewCompletion(dt)
	ai, _ := dt.Schema.AttrIndex("A")
	bi, _ := dt.Schema.AttrIndex("B")
	comp.SetChain(ai, []int{0, 1, 2}) // 0 ≺ 1 ≺ 2
	comp.SetChain(bi, []int{2, 1, 0}) // 2 ≺ 1 ≺ 0
	// Singleton group e2 keeps rank zero.
	if err := comp.Validate(); err != nil {
		t.Fatal(err)
	}
	if !comp.Less(ai, 0, 2) || comp.Less(ai, 2, 0) {
		t.Error("Less misreports within entity")
	}
	if comp.Less(ai, 0, 3) {
		t.Error("cross-entity tuples must be incomparable")
	}
	lst := comp.CurrentInstance()
	if lst.Len() != 2 {
		t.Fatalf("LST has %d tuples", lst.Len())
	}
	want := Tuple{S("e1"), I(3), I(10)} // A from tuple 2, B from tuple 0
	if !lst.Tuples[0].Equal(want) {
		t.Errorf("LST(e1) = %v, want %v", lst.Tuples[0], want)
	}
	if !lst.Tuples[1].Equal(Tuple{S("e2"), I(4), I(40)}) {
		t.Errorf("LST(e2) = %v", lst.Tuples[1])
	}
	// Violating a base pair is caught.
	dt.MustAddOrder("A", 2, 1)
	if err := comp.Validate(); err == nil {
		t.Error("completion violating base order accepted")
	}
}

func TestEnumerateCompletions(t *testing.T) {
	dt := buildTemporal(t)
	dt.MustAddOrder("A", 0, 1)
	// Completions: A on e1 has linear extensions of {0,1,2} with 0<1:
	// 3 of them; B unconstrained: 6; e2 singleton: 1 ⇒ 18 total.
	if got := CountCompletions(dt); got != 18 {
		t.Errorf("CountCompletions = %d, want 18", got)
	}
	count := 0
	EnumerateCompletions(dt, func(c *Completion) bool {
		if err := c.Validate(); err != nil {
			t.Fatalf("invalid enumerated completion: %v", err)
		}
		count++
		return true
	})
	if count != 18 {
		t.Errorf("enumerated %d completions, want 18", count)
	}
	// Early stop.
	count = 0
	EnumerateCompletions(dt, func(*Completion) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop enumerated %d", count)
	}
}

func TestTupleKeyUniqueness(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		t1 := Tuple{I(a), S(s1)}
		t2 := Tuple{I(b), S(s2)}
		return (t1.Key() == t2.Key()) == t1.Equal(t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Kind confusion must not collide: I(1) vs S("1").
	if (Tuple{I(1)}).Key() == (Tuple{S("1")}).Key() {
		t.Error("int and string keys collide")
	}
}
