// Package tractable implements the polynomial-time special cases of
// Section 6 of the paper, for specifications WITHOUT denial constraints:
//
//   - Theorem 6.1: CPS, COP and DCIP in PTIME, via a fixpoint computation
//     that propagates partial currency orders along copy functions in both
//     directions until nothing changes or a cycle appears;
//   - Lemma 6.2: the computed fixpoint PO∞ equals the intersection of all
//     consistent completions (the certain currency order);
//   - Proposition 6.3: CCQA in PTIME for SP queries, via the poss(S)
//     construction with fresh labelled nulls;
//   - Theorem 6.4: CPP and BCP in PTIME for SP queries (k fixed), via
//     per-entity reachable-answer analysis.
//
// These implementations are independent of the exact solver in
// internal/osolve and are differentially tested against it.
//
// Routing note: PO∞ depends on the specification only, not on the
// question asked of it. View freezes one fixpoint into a compact
// read-only form that answers CPS and COP by lookup, DCIP by a flag and
// SP certain answers by one scan of the query relation's entities. The
// server's auto-routing (internal/server) builds one View per
// specification version on first use and answers every in-scope request
// from it: no denial constraints, and an SP query for the query-dependent
// problems. The package-level functions build a fresh View per call. The
// exact engine decomposes its search into connected components, but each
// component's search is still worst-case exponential; building a View is
// strictly polynomial.
package tractable

import (
	"fmt"

	"currency/internal/order"
	"currency/internal/relation"
	"currency/internal/spec"
)

// ErrHasConstraints is returned when a tractable algorithm is invoked on a
// specification carrying denial constraints, outside its scope.
var ErrHasConstraints = fmt.Errorf("tractable: specification has denial constraints; use the exact reasoner")

// PO holds the fixpoint certain orders PO∞: per relation, one transitively
// closed pair set per attribute index.
type PO struct {
	// Sets[rel][attrIdx] is the certain order; nil at the EID index.
	Sets map[string][]*order.PairSet
	// Consistent is false when the fixpoint produced a cycle, i.e.
	// Mod(S) = ∅.
	Consistent bool
}

// Has reports whether i ≺ j on attribute index ai of rel is certain.
func (po *PO) Has(rel string, ai, i, j int) bool {
	sets, ok := po.Sets[rel]
	if !ok || sets[ai] == nil {
		return false
	}
	return sets[ai].Has(i, j)
}

// POInfinity runs the Theorem 6.1 fixpoint: starting from the given
// partial orders (transitively closed), repeatedly transfer order
// information across copy functions — source to target by
// ≺-compatibility, and target to source by its contrapositive (sound
// because completed orders are total per entity) — until a fixpoint or a
// cycle is reached.
func POInfinity(s *spec.Spec) (*PO, error) {
	if len(s.Constraints) > 0 {
		return nil, ErrHasConstraints
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	po := &PO{Sets: make(map[string][]*order.PairSet), Consistent: true}
	for _, r := range s.Relations {
		sets := make([]*order.PairSet, r.Schema.Arity())
		for _, ai := range r.Schema.NonEIDIndexes() {
			if r.Orders[ai] != nil {
				sets[ai] = r.Orders[ai].TransitiveClosure()
			} else {
				sets[ai] = order.NewPairSet()
			}
		}
		po.Sets[r.Schema.Name] = sets
	}

	checkAcyclic := func() bool {
		for _, r := range s.Relations {
			sets := po.Sets[r.Schema.Name]
			for _, ai := range r.Schema.NonEIDIndexes() {
				if sets[ai].HasCycle() {
					return false
				}
			}
		}
		return true
	}

	for {
		changed := false
		for _, cf := range s.Copies {
			tgt, _ := s.Relation(cf.Target)
			src, _ := s.Relation(cf.Source)
			pairs, err := cf.AttrPairs(tgt.Schema, src.Schema)
			if err != nil {
				return nil, err
			}
			mapped := cf.Pairs()
			tSets := po.Sets[cf.Target]
			sSets := po.Sets[cf.Source]
			for a := 0; a < len(mapped); a++ {
				for b := 0; b < len(mapped); b++ {
					if a == b {
						continue
					}
					t1, s1 := mapped[a][0], mapped[a][1]
					t2, s2 := mapped[b][0], mapped[b][1]
					if tgt.EID(t1) != tgt.EID(t2) || src.EID(s1) != src.EID(s2) {
						continue
					}
					for _, p := range pairs {
						tA, sA := p[0], p[1]
						// Source to target: ≺-compatibility.
						if s1 != s2 && sSets[sA].Has(s1, s2) && !tSets[tA].Has(t1, t2) {
							tSets[tA].Add(t1, t2)
							changed = true
						}
						// Target to source: if t1 ≺ t2 is certain, s2 ≺ s1
						// would force t2 ≺ t1 by compatibility — impossible
						// in a total order — so s1 ≺ s2. Sound only for
						// distinct source tuples.
						if s1 != s2 && t1 != t2 && tSets[tA].Has(t1, t2) && !sSets[sA].Has(s1, s2) {
							sSets[sA].Add(s1, s2)
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			break
		}
		// Re-close transitively after each sweep.
		for name, sets := range po.Sets {
			for ai, ps := range sets {
				if ps != nil {
					sets[ai] = ps.TransitiveClosure()
				}
			}
			po.Sets[name] = sets
		}
		if !checkAcyclic() {
			po.Consistent = false
			return po, nil
		}
	}
	if !checkAcyclic() {
		po.Consistent = false
	}
	return po, nil
}

// Consistent decides CPS for constraint-free specifications in PTIME
// (Theorem 6.1).
func Consistent(s *spec.Spec) (bool, error) {
	v, err := NewView(s)
	if err != nil {
		return false, err
	}
	return v.Consistent(), nil
}

// OrderRequirement mirrors core.OrderRequirement without importing it:
// tuple I must precede tuple J on Attr of Rel in every completion.
type OrderRequirement struct {
	Rel  string
	Attr string
	I, J int
}

// CertainOrder decides COP for constraint-free specifications in PTIME;
// see View.CertainOrder.
func CertainOrder(s *spec.Spec, reqs []OrderRequirement) (bool, error) {
	v, err := NewView(s)
	if err != nil {
		return false, err
	}
	return v.CertainOrder(reqs)
}

// Deterministic decides DCIP for constraint-free specifications in PTIME
// (Theorem 6.1); see View.Deterministic.
func Deterministic(s *spec.Spec, rel string) (bool, error) {
	v, err := NewView(s)
	if err != nil {
		return false, err
	}
	return v.Deterministic(rel)
}

// Poss computes poss(S) of Proposition 6.3 for every relation of a
// constraint-free specification, keyed by relation name: one tuple per
// entity whose attribute values are the unique possible current value, or
// a distinct fresh labelled null when several current values are
// possible. Returns nil instances and ok=false when the specification is
// inconsistent.
func Poss(s *spec.Spec) (map[string]*relation.Instance, bool, error) {
	v, err := NewView(s)
	if err != nil {
		return nil, false, err
	}
	if !v.consistent {
		return nil, false, nil
	}
	var fresh int64
	out := make(map[string]*relation.Instance, len(s.Relations))
	for _, r := range s.Relations {
		rv := v.rels[r.Schema.Name]
		inst := relation.NewInstance(r.Schema)
		for e := range rv.entity {
			t := make(relation.Tuple, r.Schema.Arity())
			t[r.Schema.EIDIndex] = rv.eid(e)
			for _, ai := range r.Schema.NonEIDIndexes() {
				if t[ai] = rv.value(e, ai); t[ai].IsFresh() {
					fresh++
					t[ai] = relation.Fresh(fresh)
				}
			}
			inst.MustAdd(t)
		}
		out[r.Schema.Name] = inst
	}
	return out, true, nil
}
