package gen

// Random delta streams — the workload of the incremental re-grounding
// path (osolve.ApplyDelta, PATCH /specs/{id}): a base specification plus
// a sequence of small changes. Deltas are drawn to keep the base orders
// acyclic (pairs follow the ground-truth timeline, with inserted tuples
// as the newest), but constraints can still render a patched
// specification inconsistent — both outcomes are wanted by the
// differential tests.

import (
	"fmt"
	"math/rand"

	"currency/internal/api"
	"currency/internal/copyfn"
	"currency/internal/parse"
	"currency/internal/relation"
	"currency/internal/spec"
)

// DeltaConfig sizes one random delta.
type DeltaConfig struct {
	// Inserts is the number of tuple inserts; each picks a random
	// relation and, with probability NewEntity, a fresh entity.
	Inserts int
	// NewEntity is the probability an insert opens a fresh entity.
	NewEntity float64
	// Deletes is the number of tuple deletes (capped at the available
	// tuples; entities are never emptied below one tuple so relations
	// stay populated).
	Deletes int
	// Orders is the number of order-pair reveals, drawn along the
	// ground-truth timeline (ascending post-delta index) so the base
	// orders stay acyclic.
	Orders int
	// Domain is the value domain for inserted tuples (0 = 3).
	Domain int
	// PConstraint is the probability of one constraint add and, when the
	// spec has constraints, of one constraint drop.
	PConstraint float64
	// PCopyDrop is the probability of dropping one copy function.
	PCopyDrop float64
}

// DefaultDeltaConfig is a small update: a few arriving tuples, one
// revealed order, structural changes occasionally.
func DefaultDeltaConfig() DeltaConfig {
	return DeltaConfig{Inserts: 2, NewEntity: 0.2, Deletes: 0, Orders: 1, PConstraint: 0.1, PCopyDrop: 0.05}
}

// RandomDelta draws one delta against the given specification. The same
// rng stream yields the same delta. The returned delta always passes
// Delta.Validate against s.
func RandomDelta(rng *rand.Rand, s *spec.Spec, cfg DeltaConfig) *spec.Delta {
	if cfg.Domain <= 0 {
		cfg.Domain = 3
	}
	d := &spec.Delta{}
	if len(s.Relations) == 0 {
		return d
	}

	// Deletes first (pre-delta indices): pick tuples whose entity keeps at
	// least one member, without duplicates.
	type delKey struct {
		rel string
		idx int
	}
	deleted := make(map[delKey]bool)
	delCount := make(map[string]map[relation.Value]int)
	for k := 0; k < cfg.Deletes; k++ {
		r := s.Relations[rng.Intn(len(s.Relations))]
		if r.Len() == 0 {
			continue
		}
		idx := rng.Intn(r.Len())
		key := delKey{r.Schema.Name, idx}
		if deleted[key] {
			continue
		}
		eid := r.EID(idx)
		size := 0
		for i := range r.Tuples {
			if r.EID(i) == eid {
				size++
			}
		}
		if dc := delCount[r.Schema.Name]; dc != nil {
			size -= dc[eid]
		}
		if size <= 1 {
			continue // keep the entity populated
		}
		deleted[key] = true
		if delCount[r.Schema.Name] == nil {
			delCount[r.Schema.Name] = make(map[relation.Value]int)
		}
		delCount[r.Schema.Name][eid]++
		d.Deletes = append(d.Deletes, spec.TupleDelete{Rel: r.Schema.Name, Index: idx})
	}

	// Simulate the post-delta tuple space per relation: surviving tuples
	// in order, then inserts appended.
	finalEIDs := make(map[string][]relation.Value)
	for _, r := range s.Relations {
		var eids []relation.Value
		for i := range r.Tuples {
			if !deleted[delKey{r.Schema.Name, i}] {
				eids = append(eids, r.EID(i))
			}
		}
		finalEIDs[r.Schema.Name] = eids
	}

	fresh := 0
	for k := 0; k < cfg.Inserts; k++ {
		r := s.Relations[rng.Intn(len(s.Relations))]
		name := r.Schema.Name
		var eid relation.Value
		if len(finalEIDs[name]) == 0 || rng.Float64() < cfg.NewEntity {
			eid = relation.S(fmt.Sprintf("d%d", fresh))
			fresh++
		} else {
			eid = finalEIDs[name][rng.Intn(len(finalEIDs[name]))]
		}
		t := make(relation.Tuple, r.Schema.Arity())
		t[r.Schema.EIDIndex] = eid
		for _, ai := range r.Schema.NonEIDIndexes() {
			t[ai] = relation.I(int64(rng.Intn(cfg.Domain)))
		}
		d.Inserts = append(d.Inserts, spec.TupleInsert{Rel: name, Tuple: t})
		finalEIDs[name] = append(finalEIDs[name], eid)
	}

	// Order reveals along the timeline: i ≺ j with i < j in the final
	// index space, within one entity.
	for k := 0; k < cfg.Orders; k++ {
		r := s.Relations[rng.Intn(len(s.Relations))]
		name := r.Schema.Name
		// Groups in first-appearance order, not map order: the pick must
		// depend on the rng stream alone.
		gi := make(map[relation.Value]int)
		var all [][]int
		for i, e := range finalEIDs[name] {
			k, ok := gi[e]
			if !ok {
				k = len(all)
				gi[e] = k
				all = append(all, nil)
			}
			all[k] = append(all[k], i)
		}
		var groups [][]int
		for _, g := range all {
			if len(g) >= 2 {
				groups = append(groups, g)
			}
		}
		if len(groups) == 0 {
			continue
		}
		g := groups[rng.Intn(len(groups))]
		x := rng.Intn(len(g) - 1)
		y := x + 1 + rng.Intn(len(g)-x-1)
		ais := r.Schema.NonEIDIndexes()
		attr := r.Schema.Attrs[ais[rng.Intn(len(ais))]]
		d.Orders = append(d.Orders, spec.OrderAdd{Rel: name, Attr: attr, I: g[x], J: g[y]})
	}

	if rng.Float64() < cfg.PConstraint {
		r := s.Relations[rng.Intn(len(s.Relations))]
		d.AddConstraints = append(d.AddConstraints,
			RandomConstraint(rng, r.Schema, fmt.Sprintf("dcd%d", rng.Intn(1<<30))))
	}
	if len(s.Constraints) > 0 && rng.Float64() < cfg.PConstraint {
		d.DropConstraints = append(d.DropConstraints,
			s.Constraints[rng.Intn(len(s.Constraints))].Name)
	}
	if len(s.Copies) > 0 && rng.Float64() < cfg.PCopyDrop {
		d.DropCopies = append(d.DropCopies, s.Copies[rng.Intn(len(s.Copies))].Name)
	}
	return d
}

// WriteChainDelta draws the next write of a write chain — the PATCH
// stream shape of currencyd's load benchmark: insert one tuple, reveal
// one order pair and, when prev names a relation, delete that relation's
// last tuple (the one the previous write inserted). The specification
// keeps its size along the chain, so every write costs about the same.
// The insert and the reveal are drawn against the post-delete
// specification, whose indices are the combined delta's post-delta
// indices.
func WriteChainDelta(rng *rand.Rand, s *spec.Spec, prev string) (*spec.Delta, error) {
	base := s
	var del []spec.TupleDelete
	if prev != "" {
		r, ok := s.Relation(prev)
		if !ok {
			return nil, fmt.Errorf("gen: write chain deletes from unknown relation %s", prev)
		}
		del = []spec.TupleDelete{{Rel: prev, Index: r.Len() - 1}}
		var err error
		if base, _, err = (&spec.Delta{Deletes: del}).Apply(s); err != nil {
			return nil, err
		}
	}
	d := RandomDelta(rng, base, DeltaConfig{Inserts: 1, NewEntity: 0.2, Orders: 1})
	d.Deletes = del
	return d, nil
}

// wireValue converts a relation value to its JSON wire form.
func wireValue(v relation.Value) any {
	if v.Kind == relation.KindInt {
		return v.Int
	}
	return v.Str
}

// WireDelta renders a structured delta as the PATCH /specs/{id} wire
// request, addressing tuples by decimal index (deletes pre-delta, orders
// and copy mappings post-delta) — directly POSTable against a currencyd
// registry entry holding s.
func WireDelta(s *spec.Spec, d *spec.Delta) api.DeltaRequest {
	var req api.DeltaRequest
	for _, td := range d.Deletes {
		req.DeleteTuples = append(req.DeleteTuples, api.TupleRef{Rel: td.Rel, Ref: fmt.Sprint(td.Index)})
	}
	for _, ti := range d.Inserts {
		ins := api.TupleInsert{Rel: ti.Rel, Label: ti.Label}
		for _, v := range ti.Tuple {
			ins.Values = append(ins.Values, wireValue(v))
		}
		req.InsertTuples = append(req.InsertTuples, ins)
	}
	for _, oa := range d.Orders {
		req.AddOrders = append(req.AddOrders, api.OrderPair{
			Rel: oa.Rel, Attr: oa.Attr, I: fmt.Sprint(oa.I), J: fmt.Sprint(oa.J),
		})
	}
	for _, c := range d.AddConstraints {
		req.AddConstraints = append(req.AddConstraints, parse.MarshalConstraint(c))
	}
	req.DropConstraints = append(req.DropConstraints, d.DropConstraints...)
	for _, cf := range d.AddCopies {
		req.AddCopies = append(req.AddCopies, wireCopy(cf))
	}
	req.DropCopies = append(req.DropCopies, d.DropCopies...)
	return req
}

// wireCopy renders a copy function in wire form (post-delta indices).
func wireCopy(cf *copyfn.CopyFunction) api.CopyAdd {
	out := api.CopyAdd{
		Name: cf.Name, Target: cf.Target, Source: cf.Source,
		TargetAttrs: append([]string(nil), cf.TargetAttrs...),
		SourceAttrs: append([]string(nil), cf.SourceAttrs...),
	}
	for _, p := range cf.Pairs() {
		out.Map = append(out.Map, [2]string{fmt.Sprint(p[0]), fmt.Sprint(p[1])})
	}
	return out
}
