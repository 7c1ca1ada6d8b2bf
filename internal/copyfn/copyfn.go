// Package copyfn implements copy functions between temporal instances, as
// defined in Section 2 of the paper: partial mappings ρ of signature
// R1[A⃗] ⇐ R2[B⃗] from a target instance D1 to a source instance D2 such
// that copied tuples agree on the correlated attribute lists (the copying
// condition), together with the ≺-compatibility requirement that currency
// orders on copied values in the source carry over to the target.
package copyfn

import (
	"fmt"
	"sort"
	"strings"

	"currency/internal/relation"
)

// CopyFunction records that the A⃗ attribute values of some tuples of the
// target relation were imported from the B⃗ attributes of tuples of the
// source relation. Mapping is the partial function ρ: target tuple index →
// source tuple index.
type CopyFunction struct {
	Name string
	// Target is the importing relation (R1 in the signature R1[A⃗] ⇐ R2[B⃗]).
	Target string
	// Source is the relation copied from (R2).
	Source string
	// TargetAttrs and SourceAttrs are the correlated attribute lists A⃗, B⃗;
	// they have equal length and position i of one corresponds to position
	// i of the other.
	TargetAttrs []string
	SourceAttrs []string
	Mapping     map[int]int
}

// New creates an empty copy function with the given signature.
func New(name, target, source string, targetAttrs, sourceAttrs []string) *CopyFunction {
	return &CopyFunction{
		Name:        name,
		Target:      target,
		Source:      source,
		TargetAttrs: append([]string(nil), targetAttrs...),
		SourceAttrs: append([]string(nil), sourceAttrs...),
		Mapping:     make(map[int]int),
	}
}

// Set records ρ(target tuple t) = source tuple s.
func (cf *CopyFunction) Set(t, s int) { cf.Mapping[t] = s }

// Len returns |ρ|, the number of mapped tuples (the size measure of the
// bounded copying problem BCP).
func (cf *CopyFunction) Len() int { return len(cf.Mapping) }

// Pairs returns the mapping as sorted (target, source) pairs.
func (cf *CopyFunction) Pairs() [][2]int {
	out := make([][2]int, 0, len(cf.Mapping))
	for t, s := range cf.Mapping {
		out = append(out, [2]int{t, s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Clone deep-copies the copy function.
func (cf *CopyFunction) Clone() *CopyFunction {
	out := New(cf.Name, cf.Target, cf.Source, cf.TargetAttrs, cf.SourceAttrs)
	for t, s := range cf.Mapping {
		out.Mapping[t] = s
	}
	return out
}

// AttrPairs resolves the correlated attribute lists to index pairs
// (targetAttrIdx, sourceAttrIdx).
func (cf *CopyFunction) AttrPairs(target, source *relation.Schema) ([][2]int, error) {
	if len(cf.TargetAttrs) != len(cf.SourceAttrs) {
		return nil, fmt.Errorf("copyfn: %s signature lists differ in length", cf.Name)
	}
	if len(cf.TargetAttrs) == 0 {
		return nil, fmt.Errorf("copyfn: %s has an empty signature", cf.Name)
	}
	out := make([][2]int, len(cf.TargetAttrs))
	for i := range cf.TargetAttrs {
		ti, ok := target.AttrIndex(cf.TargetAttrs[i])
		if !ok {
			return nil, fmt.Errorf("copyfn: %s: unknown target attribute %s.%s", cf.Name, target.Name, cf.TargetAttrs[i])
		}
		si, ok := source.AttrIndex(cf.SourceAttrs[i])
		if !ok {
			return nil, fmt.Errorf("copyfn: %s: unknown source attribute %s.%s", cf.Name, source.Name, cf.SourceAttrs[i])
		}
		if ti == target.EIDIndex {
			return nil, fmt.Errorf("copyfn: %s copies into the EID attribute of %s", cf.Name, target.Name)
		}
		out[i] = [2]int{ti, si}
	}
	return out, nil
}

// CoversAllAttrs reports whether the signature covers every non-EID
// attribute of the target schema. Only covering copy functions can be
// extended with new tuples (Section 4).
func (cf *CopyFunction) CoversAllAttrs(target *relation.Schema) bool {
	covered := make(map[string]bool, len(cf.TargetAttrs))
	for _, a := range cf.TargetAttrs {
		covered[a] = true
	}
	for i, a := range target.Attrs {
		if i == target.EIDIndex {
			continue
		}
		if !covered[a] {
			return false
		}
	}
	return true
}

// Validate checks the copying condition: for every mapped pair ρ(t) = s,
// t[Ai] = s[Bi] for all correlated attribute positions, and indexes are in
// range.
func (cf *CopyFunction) Validate(target, source *relation.TemporalInstance) error {
	pairs, err := cf.AttrPairs(target.Schema, source.Schema)
	if err != nil {
		return err
	}
	for t, s := range cf.Mapping {
		if t < 0 || t >= target.Len() {
			return fmt.Errorf("copyfn: %s maps out-of-range target tuple %d", cf.Name, t)
		}
		if s < 0 || s >= source.Len() {
			return fmt.Errorf("copyfn: %s maps target %s to out-of-range source tuple %d", cf.Name, target.Label(t), s)
		}
		for _, p := range pairs {
			if target.Tuples[t][p[0]] != source.Tuples[s][p[1]] {
				return fmt.Errorf("copyfn: %s violates the copying condition: %s[%s]=%s but %s[%s]=%s",
					cf.Name,
					target.Label(t), target.Schema.Attrs[p[0]], target.Tuples[t][p[0]],
					source.Label(s), source.Schema.Attrs[p[1]], source.Tuples[s][p[1]])
			}
		}
	}
	return nil
}

// CompatRule is one ≺-compatibility implication across relations: if
// source tuple SI ≺ SJ on source attribute SAttr, then target tuple TI ≺ TJ
// on target attribute TAttr.
type CompatRule struct {
	SAttr, SI, SJ int
	TAttr, TI, TJ int
}

// CompatRules instantiates the ≺-compatibility condition: for every two
// mapped target tuples t1, t2 with the same target EID whose sources s1, s2
// share the same source EID, and every correlated attribute position, the
// rule s1 ≺ s2 → t1 ≺ t2. Rules come ordered by (t1, t2), then attribute
// position.
//
// Only pairs within one (target EID, source EID) group can yield a rule,
// so the mapping is grouped first and each entry is paired with the
// members of its own group alone: the cost is Σ group², not |ρ|². A
// non-nil keep restricts the result to the groups it accepts — the
// incremental re-grounding re-derives only the groups of re-ground
// entities — and entries of rejected groups are never paired at all.
func (cf *CopyFunction) CompatRules(target, source *relation.TemporalInstance, keep func(tEID, sEID relation.Value) bool) ([]CompatRule, error) {
	pairs, err := cf.AttrPairs(target.Schema, source.Schema)
	if err != nil {
		return nil, err
	}
	mapped := make([][2]int, 0, len(cf.Mapping))
	for t, s := range cf.Mapping {
		if keep == nil || keep(target.EID(t), source.EID(s)) {
			mapped = append(mapped, [2]int{t, s})
		}
	}
	sort.Slice(mapped, func(i, j int) bool { return mapped[i][0] < mapped[j][0] })
	// Group members stay in ascending target order, so walking every entry
	// against its own group's members reproduces the (t1, t2) order of the
	// all-pairs enumeration.
	type groupKey struct{ t, s relation.Value }
	groupIdx := make(map[groupKey]int)
	groupOf := make([]int, len(mapped))
	var members [][]int
	for a, m := range mapped {
		k := groupKey{target.EID(m[0]), source.EID(m[1])}
		gi, ok := groupIdx[k]
		if !ok {
			gi = len(members)
			groupIdx[k] = gi
			members = append(members, nil)
		}
		members[gi] = append(members[gi], a)
		groupOf[a] = gi
	}
	var rules []CompatRule
	for a, m1 := range mapped {
		for _, b := range members[groupOf[a]] {
			m2 := mapped[b]
			// ρ is a function, so t1 ≠ t2 whenever a ≠ b; when two targets
			// share a source (s1 == s2) the body s1 ≺ s1 never holds.
			if b == a || m1[1] == m2[1] {
				continue
			}
			for _, p := range pairs {
				rules = append(rules, CompatRule{
					SAttr: p[1], SI: m1[1], SJ: m2[1],
					TAttr: p[0], TI: m1[0], TJ: m2[0],
				})
			}
		}
	}
	return rules, nil
}

// Compatible reports whether the copy function is ≺-compatible with the
// given completions of its target and source instances: every source-order
// pair between copied tuples is mirrored in the target.
func (cf *CopyFunction) Compatible(target, source *relation.Completion) (bool, error) {
	rules, err := cf.CompatRules(target.Base, source.Base, nil)
	if err != nil {
		return false, err
	}
	for _, r := range rules {
		if source.Less(r.SAttr, r.SI, r.SJ) {
			if r.TI == r.TJ {
				return false, nil
			}
			if !target.Less(r.TAttr, r.TI, r.TJ) {
				return false, nil
			}
		}
	}
	return true, nil
}

// String renders the copy function.
func (cf *CopyFunction) String() string {
	var ms []string
	for _, p := range cf.Pairs() {
		ms = append(ms, fmt.Sprintf("%d<-%d", p[0], p[1]))
	}
	return fmt.Sprintf("copy %s %s[%s] <= %s[%s] {%s}",
		cf.Name, cf.Target, strings.Join(cf.TargetAttrs, ","),
		cf.Source, strings.Join(cf.SourceAttrs, ","), strings.Join(ms, " "))
}
