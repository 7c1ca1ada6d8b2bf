package tractable

import (
	"fmt"
	"sort"
	"strings"

	"currency/internal/query"
	"currency/internal/relation"
	"currency/internal/spec"
)

// The Theorem 6.4 algorithms: CPP and BCP for SP queries on
// constraint-free specifications in polynomial time.
//
// Setting (Section 4): copy functions import from source relations into
// target relations; the query reads a single target relation R. With no
// denial constraints, currency information flows only along copy
// functions, so an extension importing tuples for entity e of R affects
// poss(e, ·) of that entity only, and entities deviate independently.
//
// Per entity e, the certain contribution of e to an SP answer is a single
// row or nothing: ans_e ∈ {∅, {row}}. Writing O for the base certain
// answers (the union of contributions) and reach(e) for the set of
// contributions reachable by consistent extensions for e, the collection
// ρ is currency preserving iff
//
//	(a) every reachable contribution stays inside O (no extension can
//	    surface a new certain row), and
//	(b) every row of O is pinned by some entity whose reachable set is
//	    exactly {that row} (otherwise each contributor can individually
//	    deviate and a combined extension removes the row).
//
// reach(e) is computed by trying extension subsets for e up to a small
// witness bound: with per-attribute independence (no denial constraints),
// a deviation of the answer is witnessed by importing at most two tuples
// per relevant attribute — one to dominate or one to create an
// incomparable second sink (a "spoiler", in the paper's terminology). The
// default bound of two matches the witness sizes used in the proof of
// Theorem 6.4; it can be raised for defence in differential testing.

// DefaultWitness is the default bound on per-entity extension witnesses.
const DefaultWitness = 2

// entityAtom is an elementary per-entity extension: import source tuple
// Source through copy function Copy (index into spec.Copies) for the
// entity under consideration.
type entityAtom struct {
	Copy   int
	Source int
}

// spAnswerKey encodes a per-entity contribution for set comparisons.
func spAnswerKey(row relation.Tuple, ok bool) string {
	if !ok {
		return "∅"
	}
	return row.Key()
}

// applyEntityAtom extends a cloned specification by importing the atom's
// source tuple for the given entity of relation rel, mirroring
// core.ApplyAtom's set semantics. Returns false when the atom is a no-op.
func applyEntityAtom(s *spec.Spec, rel string, eid relation.Value, a entityAtom) (bool, error) {
	cf := s.Copies[a.Copy]
	if cf.Target != rel {
		return false, nil
	}
	tgt, _ := s.Relation(cf.Target)
	src, _ := s.Relation(cf.Source)
	if !cf.CoversAllAttrs(tgt.Schema) {
		return false, nil
	}
	pairs, err := cf.AttrPairs(tgt.Schema, src.Schema)
	if err != nil {
		return false, err
	}
	newTuple := make(relation.Tuple, tgt.Schema.Arity())
	newTuple[tgt.Schema.EIDIndex] = eid
	for _, p := range pairs {
		newTuple[p[0]] = src.Tuples[a.Source][p[1]]
	}
	for ti, tu := range tgt.Tuples {
		if !tu.Equal(newTuple) {
			continue
		}
		if mapped, isMapped := cf.Mapping[ti]; isMapped {
			if mapped == a.Source {
				return false, nil
			}
			continue
		}
		cf.Set(ti, a.Source)
		return true, nil
	}
	ti, err := tgt.Add(newTuple)
	if err != nil {
		return false, err
	}
	cf.Set(ti, a.Source)
	return true, nil
}

// entityContribution computes ans_e for one entity of the query relation
// under a (possibly extended) specification: the SP answer row produced by
// the entity's poss tuple, if any. ok=false marks an inconsistent
// extension (to be skipped), via the consistent flag.
func entityContribution(s *spec.Spec, shape query.SPShape, eid relation.Value) (relation.Tuple, bool, bool, error) {
	v, err := NewView(s)
	if err != nil {
		return nil, false, false, err
	}
	if !v.consistent {
		return nil, false, false, nil
	}
	row, ok := v.contribution(shape, eid)
	return row, ok, true, nil
}

// reachableContributions enumerates the contribution values reachable for
// entity eid via consistent extensions of size ≤ witness, as a set of
// answer keys mapped to representative rows. The empty extension
// contributes base, the entity's row on the unextended specification
// under key baseKey.
func reachableContributions(s *spec.Spec, shape query.SPShape, eid relation.Value, baseKey string, base relation.Tuple, atoms []entityAtom, witness int) (map[string]relation.Tuple, error) {
	out := map[string]relation.Tuple{baseKey: base}
	var rec func(start int, cur *spec.Spec, depth int) error
	record := func(cur *spec.Spec) error {
		row, ok, consistent, err := entityContribution(cur, shape, eid)
		if err != nil {
			return err
		}
		if consistent {
			out[spAnswerKey(row, ok)] = row
		}
		return nil
	}
	rec = func(start int, cur *spec.Spec, depth int) error {
		if depth == witness {
			return nil
		}
		for i := start; i < len(atoms); i++ {
			next := cur.Clone()
			changed, err := applyEntityAtom(next, shape.Rel, eid, atoms[i])
			if err != nil {
				return err
			}
			if !changed {
				continue
			}
			if err := record(next); err != nil {
				return err
			}
			if err := rec(i+1, next, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, s, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// entityAtomsFor lists the per-entity extension atoms available for the
// query relation: every source tuple of every covering copy function into
// that relation.
func entityAtomsFor(s *spec.Spec, rel string) []entityAtom {
	var out []entityAtom
	for ci, cf := range s.Copies {
		if cf.Target != rel {
			continue
		}
		tgt, ok := s.Relation(cf.Target)
		if !ok || !cf.CoversAllAttrs(tgt.Schema) {
			continue
		}
		src, ok := s.Relation(cf.Source)
		if !ok {
			continue
		}
		for si := 0; si < src.Len(); si++ {
			out = append(out, entityAtom{Copy: ci, Source: si})
		}
	}
	return out
}

// CurrencyPreservingSP decides CPP for SP queries on constraint-free
// specifications in polynomial time (Theorem 6.4), with witness bound
// DefaultWitness.
func CurrencyPreservingSP(s *spec.Spec, q *query.Query) (bool, error) {
	return CurrencyPreservingSPWitness(s, q, DefaultWitness)
}

// CurrencyPreservingSPWitness is CurrencyPreservingSP with an explicit
// per-entity witness bound.
func CurrencyPreservingSPWitness(s *spec.Spec, q *query.Query, witness int) (bool, error) {
	if len(s.Constraints) > 0 {
		return false, ErrHasConstraints
	}
	shape, ok := query.AsSP(q)
	if !ok {
		return false, fmt.Errorf("tractable: query %s is not an SP query", q.Name)
	}
	po, err := POInfinity(s)
	if err != nil {
		return false, err
	}
	if !po.Consistent {
		return false, nil // CPP requires Mod(S) ≠ ∅
	}
	rv, ok := freeze(s, po).rels[shape.Rel]
	if !ok {
		return false, fmt.Errorf("tractable: query %s references unknown relation %s", q.Name, shape.Rel)
	}
	atoms := entityAtomsFor(s, shape.Rel)

	// Base contributions and the base certain answers O, all read off the
	// one fixpoint of the unextended specification.
	type contribution struct {
		eid relation.Value
		row relation.Tuple
		key string
	}
	var baseContribs []contribution
	inO := make(map[string]bool)
	for e := range rv.entity {
		row, ok := rv.answer(shape, e)
		k := spAnswerKey(row, ok)
		baseContribs = append(baseContribs, contribution{rv.eid(e), row, k})
		if ok {
			inO[k] = true
		}
	}

	// reach(e) per entity; check condition (a) on the fly.
	pinned := make(map[string]bool)
	for _, bc := range baseContribs {
		reach, err := reachableContributions(s, shape, bc.eid, bc.key, bc.row, atoms, witness)
		if err != nil {
			return false, err
		}
		allSame := true
		for k := range reach {
			if k != "∅" && !inO[k] {
				return false, nil // a new certain row can surface
			}
			if k != bc.key {
				allSame = false
			}
		}
		if allSame && bc.key != "∅" {
			pinned[bc.key] = true
		}
	}
	// Condition (b): every base row must be pinned by some entity.
	for k := range inO {
		if !pinned[k] {
			return false, nil
		}
	}
	return true, nil
}

// BoundedCopyingSP decides BCP for SP queries on constraint-free
// specifications with fixed k in polynomial time (Theorem 6.4): enumerate
// the O(n^k) extensions of size ≤ k and test each for currency
// preservation. Returns the witnessing extension description when found.
func BoundedCopyingSP(s *spec.Spec, q *query.Query, k int) (bool, string, error) {
	return BoundedCopyingSPWitness(s, q, k, DefaultWitness)
}

// BoundedCopyingSPWitness is BoundedCopyingSP with an explicit witness
// bound for the inner CPP checks.
func BoundedCopyingSPWitness(s *spec.Spec, q *query.Query, k, witness int) (bool, string, error) {
	if len(s.Constraints) > 0 {
		return false, "", ErrHasConstraints
	}
	shape, ok := query.AsSP(q)
	if !ok {
		return false, "", fmt.Errorf("tractable: query %s is not an SP query", q.Name)
	}
	po, err := POInfinity(s)
	if err != nil {
		return false, "", err
	}
	if !po.Consistent {
		return false, "", nil
	}
	r, ok := s.Relation(shape.Rel)
	if !ok {
		return false, "", fmt.Errorf("tractable: unknown relation %s", shape.Rel)
	}
	atoms := entityAtomsFor(s, shape.Rel)
	eids := r.EntityIDs()

	type step struct {
		atom entityAtom
		eid  relation.Value
	}
	var chosen []step
	var rec func(startAtom, startEID, remaining int, cur *spec.Spec, changed bool) (bool, error)
	rec = func(startAtom, startEID, remaining int, cur *spec.Spec, changed bool) (bool, error) {
		if changed {
			preserving, err := CurrencyPreservingSPWitness(cur, q, witness)
			if err != nil {
				return false, err
			}
			if preserving {
				return true, nil
			}
		}
		if remaining == 0 {
			return false, nil
		}
		for ai := startAtom; ai < len(atoms); ai++ {
			eStart := 0
			if ai == startAtom {
				eStart = startEID
			}
			for ei := eStart; ei < len(eids); ei++ {
				next := cur.Clone()
				ch, err := applyEntityAtom(next, shape.Rel, eids[ei], atoms[ai])
				if err != nil {
					return false, err
				}
				if !ch {
					continue
				}
				chosen = append(chosen, step{atoms[ai], eids[ei]})
				ok, err := rec(ai, ei+1, remaining-1, next, true)
				if err != nil {
					return false, err
				}
				if ok {
					return true, nil
				}
				chosen = chosen[:len(chosen)-1]
			}
		}
		return false, nil
	}
	found, err := rec(0, 0, k, s, false)
	if err != nil {
		return false, "", err
	}
	if !found {
		return false, "", nil
	}
	parts := make([]string, len(chosen))
	for i, st := range chosen {
		parts[i] = fmt.Sprintf("copy[%d] src#%d -> %s", st.atom.Copy, st.atom.Source, st.eid)
	}
	sort.Strings(parts)
	return true, strings.Join(parts, "; "), nil
}
