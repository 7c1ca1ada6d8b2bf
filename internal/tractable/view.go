package tractable

import (
	"fmt"
	"slices"

	"currency/internal/order"
	"currency/internal/query"
	"currency/internal/relation"
	"currency/internal/spec"
)

// View is PO∞ of one constraint-free specification, frozen into a compact
// read-only form that answers CPS, COP, DCIP (Theorem 6.1, Lemma 6.2) and
// SP certain answers (Proposition 6.3) without recomputing the fixpoint.
// PO∞ depends on the specification only, so a caller that asks many
// questions of one unchanging specification builds the view once and
// shares it: a View is safe for concurrent use. The specification must
// not be mutated while the view is in use.
type View struct {
	consistent bool
	// rels is keyed by relation name; empty when the specification is
	// inconsistent, since every decision is then vacuous.
	rels map[string]*relView
}

// relView is the frozen PO∞ of one relation.
type relView struct {
	r *relation.TemporalInstance
	// off[ai] and dst[ai] hold attribute ai's certain pairs in CSR form:
	// the certain successors of tuple i are dst[ai][off[ai][i]:off[ai][i+1]],
	// ascending. Both are nil at the EID index.
	off, dst [][]int32
	// entity[e] is the first tuple of the e-th entity, in first-occurrence
	// order.
	entity []int32
	// cur[ai][e] is the tuple holding entity e's unique possible current
	// ai-value, or -1 when completions disagree on it. These indexes are
	// poss(S) of Proposition 6.3 without the tuple copies.
	cur [][]int32
	// deterministic is DCIP for the relation: no entry of cur is -1.
	deterministic bool
}

// NewView computes PO∞ of a constraint-free specification and freezes it.
func NewView(s *spec.Spec) (*View, error) {
	po, err := POInfinity(s)
	if err != nil {
		return nil, err
	}
	return freeze(s, po), nil
}

// freeze builds the view of s from its fixpoint po.
func freeze(s *spec.Spec, po *PO) *View {
	v := &View{consistent: po.Consistent, rels: make(map[string]*relView, len(s.Relations))}
	if !po.Consistent {
		return v
	}
	for _, r := range s.Relations {
		groups := r.Entities()
		arity := r.Schema.Arity()
		rv := &relView{
			r:             r,
			off:           make([][]int32, arity),
			dst:           make([][]int32, arity),
			entity:        make([]int32, len(groups)),
			cur:           make([][]int32, arity),
			deterministic: true,
		}
		for e, g := range groups {
			rv.entity[e] = int32(g.Members[0])
		}
		sets := po.Sets[r.Schema.Name]
		for _, ai := range r.Schema.NonEIDIndexes() {
			rv.off[ai], rv.dst[ai] = csr(sets[ai], r.Len())
			cur := make([]int32, len(groups))
			for e, g := range groups {
				cur[e] = rv.current(ai, g.Members)
				if cur[e] < 0 {
					rv.deterministic = false
				}
			}
			rv.cur[ai] = cur
		}
		v.rels[r.Schema.Name] = rv
	}
	return v
}

// csr packs a pair set over tuples 0..n-1 into offsets and sorted targets.
func csr(ps *order.PairSet, n int) (off, dst []int32) {
	off = make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + int32(len(ps.Succ(i)))
	}
	dst = make([]int32, 0, off[n])
	for i := 0; i < n; i++ {
		start := len(dst)
		for _, j := range ps.Succ(i) {
			dst = append(dst, int32(j))
		}
		slices.Sort(dst[start:])
	}
	return off, dst
}

// has reports whether i ≺ j on attribute index ai is certain.
func (rv *relView) has(ai, i, j int) bool {
	off := rv.off[ai]
	if off == nil || i < 0 || i >= len(off)-1 {
		return false
	}
	for _, t := range rv.dst[ai][off[i]:off[i+1]] {
		if int(t) == j {
			return true
		}
	}
	return false
}

// current returns the tuple among one entity's members whose ai-value is
// the entity's only possible current one, or -1. The candidates are the
// PO∞ sinks: tuples with no certain successor, which can be most current
// in some completion. PO∞ pairs never cross entities, so a sink has no
// successor at all.
func (rv *relView) current(ai int, members []int) int32 {
	off := rv.off[ai]
	first := -1
	for _, i := range members {
		if off[i] != off[i+1] {
			continue
		}
		if first < 0 {
			first = i
		} else if rv.r.Tuples[i][ai] != rv.r.Tuples[first][ai] {
			return -1
		}
	}
	return int32(first)
}

// eid returns the entity id of the e-th entity.
func (rv *relView) eid(e int) relation.Value { return rv.r.EID(int(rv.entity[e])) }

// value returns entity e's poss(S) value at attribute position p. An
// undetermined value comes back as a fresh null; fresh nulls match
// nothing, so its id is irrelevant to query evaluation.
func (rv *relView) value(e, p int) relation.Value {
	if p == rv.r.Schema.EIDIndex {
		return rv.eid(e)
	}
	if t := rv.cur[p][e]; t >= 0 {
		return rv.r.Tuples[t][p]
	}
	return relation.Fresh(0)
}

// answer applies an SP query to entity e's poss(S) tuple, returning the
// projected row or ok=false when the selection fails. Selections never
// match fresh labelled nulls against anything, and rows that would
// project a fresh value are rejected: the Qˆ(poss(S)) step of
// Proposition 6.3.
func (rv *relView) answer(shape query.SPShape, e int) (relation.Tuple, bool) {
	for _, eq := range shape.VarEq {
		a, b := rv.value(e, eq[0]), rv.value(e, eq[1])
		if a.IsFresh() || b.IsFresh() || a != b {
			return nil, false
		}
	}
	for _, ce := range shape.ConstEq {
		v := rv.value(e, ce.Pos)
		if v.IsFresh() || v != ce.Const.Const {
			return nil, false
		}
	}
	row := make(relation.Tuple, len(shape.HeadPos))
	for i, p := range shape.HeadPos {
		v := rv.value(e, p)
		if v.IsFresh() {
			return nil, false
		}
		row[i] = v
	}
	return row, true
}

// Consistent reports CPS: whether Mod(S) is non-empty.
func (v *View) Consistent() bool { return v.consistent }

// CertainOrder decides COP: by Lemma 6.2, a pair is certain iff it lies
// in PO∞. Vacuously true when the specification is inconsistent.
func (v *View) CertainOrder(reqs []OrderRequirement) (bool, error) {
	if !v.consistent {
		return true, nil
	}
	for _, req := range reqs {
		rv, ok := v.rels[req.Rel]
		if !ok {
			return false, fmt.Errorf("tractable: unknown relation %s", req.Rel)
		}
		ai, ok := rv.r.Schema.AttrIndex(req.Attr)
		if !ok {
			return false, fmt.Errorf("tractable: unknown attribute %s.%s", req.Rel, req.Attr)
		}
		if !rv.has(ai, req.I, req.J) {
			return false, nil
		}
	}
	return true, nil
}

// Deterministic decides DCIP: the current instance of rel is unique iff,
// per attribute and entity, all PO∞ sinks agree on the attribute value.
// Vacuously true when the specification is inconsistent.
func (v *View) Deterministic(rel string) (bool, error) {
	if !v.consistent {
		return true, nil
	}
	rv, ok := v.rels[rel]
	if !ok {
		return false, fmt.Errorf("tractable: unknown relation %s", rel)
	}
	return rv.deterministic, nil
}

// CertainAnswersSP computes the certain current answers of an SP query
// (Proposition 6.3): evaluate the query on poss(S) and drop rows touching
// fresh nulls. The bool reports whether Mod(S) is non-empty; for an
// inconsistent specification every tuple is vacuously certain and the
// result is nil.
func (v *View) CertainAnswersSP(q *query.Query) (*query.Result, bool, error) {
	shape, ok := query.AsSP(q)
	if !ok {
		return nil, false, fmt.Errorf("tractable: query %s is not an SP query", q.Name)
	}
	if !v.consistent {
		return nil, false, nil
	}
	rv, ok := v.rels[shape.Rel]
	if !ok {
		return nil, false, fmt.Errorf("tractable: query %s references unknown relation %s", q.Name, shape.Rel)
	}
	res := &query.Result{Cols: append([]string(nil), q.Head...)}
	seen := make(map[string]bool)
	for e := range rv.entity {
		row, ok := rv.answer(shape, e)
		if !ok {
			continue
		}
		k := row.Key()
		if !seen[k] {
			seen[k] = true
			res.Rows = append(res.Rows, row)
		}
	}
	res.Sort()
	return res, true, nil
}

// contribution returns the SP answer row that entity eid of the query
// relation contributes on poss(S), if any.
func (v *View) contribution(shape query.SPShape, eid relation.Value) (relation.Tuple, bool) {
	rv, ok := v.rels[shape.Rel]
	if !ok {
		return nil, false
	}
	for e := range rv.entity {
		if rv.eid(e) == eid {
			return rv.answer(shape, e)
		}
	}
	return nil, false
}
