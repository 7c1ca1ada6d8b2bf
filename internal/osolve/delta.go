package osolve

// Incremental re-grounding — ApplyDelta patches a live solver with a
// spec.Delta instead of rebuilding it from scratch. The scheme rests on
// two structural facts of the grounding layer:
//
//   - denial-constraint rules never cross entities (dc grounding assigns
//     all tuple variables within one entity group), and copy rules
//     connect exactly one source entity to one target entity;
//   - literals are (block, position, position) triples, and positions
//     within an entity survive a delta wherever the surviving members
//     keep their relative order — inserts append members (positions
//     stable), and deletes shift positions by a computable per-block
//     position map — so a surviving rule's literals transfer to the new
//     arenas by a size- and position-aware re-encode instead of a
//     re-derivation.
//
// ApplyDelta therefore splits the delta-touched entities in two. RE-GROUND
// entities (tuples inserted) gain rule instantiations no remap can
// produce: their rules are re-derived (dc.GroundGroups with an entity
// filter; copy-rule re-derivation filtered per rule) and none of their
// old rules are copied. REMAP entities (tuples deleted, or entities only
// mentioned by added/dropped constraints and copy functions) keep every
// surviving rule: old rules are copied by the position-aware literal
// remap, and a rule that mentions a deleted member is dropped — exactly
// the grown-block remap of the insert path run in reverse. Rules of
// wholly untouched entities copy verbatim (modulo the block-base shift).
//
// One subtlety gates the delete remap: a ground rule can depend on a
// tuple that appears in none of its literals — a variable used only in
// value comparisons, or the head tuple of a HeadFalse instantiation — so
// each surviving constraint is classified (constraintSafety) and rules
// whose hidden dependencies could include a deleted tuple fall back to
// re-derivation for exactly the affected entities.
//
// Components whose blocks are all clean — and whose old component had
// exactly the same blocks — keep their propagated base spans (one flat
// copy per component when the block layout aligns) and their memoized
// verdicts and sub-models (shared, the memos are immutable), so after a
// small delta the patched solver is warm everywhere except the
// components the delta actually touched. Deletes keep untouched
// components' spans, verdicts and sub-models alive exactly like inserts.
//
// A predecessor whose base propagation conflicted still patches
// incrementally: its blocks and ground rules are valid (only its base
// arena stopped mid-propagation), so they carry over as usual and every
// component is re-propagated instead of reused. Only two cases rebuild
// from scratch (fullRebuild): a predecessor with a unit conflict (a
// body-less denial recorded in no rule segment, so no remap can tell
// whether it survives) and a delta adding an unconditional denial.
//
// The receiver is not mutated: readers in flight keep a consistent old
// engine, and the caller swaps the patched one in when ready (see
// core.Reasoner.Update).

import (
	"maps"
	"time"

	"currency/internal/copyfn"
	"currency/internal/dc"
	"currency/internal/relation"
	"currency/internal/spec"
)

// PatchStats reports what ApplyDelta reused and what it rebuilt.
type PatchStats struct {
	// FullRebuild marks the fallback: the predecessor had a unit conflict
	// or the delta adds an unconditional denial, so the patched solver
	// was built from scratch.
	FullRebuild bool
	// SpecApply is the time the specification-level delta (spec.Delta.
	// Apply) took inside ApplyDelta — the one apply of the delta, which
	// callers report as their own delta-apply stage instead of applying
	// the delta a second time.
	SpecApply time.Duration
	// TouchedBlocks counts blocks whose base state was rebuilt.
	TouchedBlocks int
	// ReusedComps / RebuiltComps partition the patched solver's
	// components: reused ones kept their base spans (and, when already
	// computed, their verdict memos); rebuilt ones were re-propagated and
	// must be re-searched.
	ReusedComps, RebuiltComps int
	// MemoComps counts reused components whose base verdict memo
	// transferred (the old component had already been searched).
	MemoComps int
	// CopiedRules / RegroundRules partition the ground rules of the
	// patched solver by provenance: copied by literal remap vs re-derived
	// from the specification. DroppedRules counts old rules the remap
	// discarded because they mentioned a deleted tuple (they exist in
	// neither partition).
	CopiedRules, RegroundRules, DroppedRules int
}

// PatchStats returns the patch record when this solver was produced by
// ApplyDelta (ok=false for solvers built by New).
func (sv *Solver) PatchStats() (PatchStats, bool) {
	if sv.patch == nil {
		return PatchStats{}, false
	}
	return *sv.patch, true
}

// entKey identifies one (relation, entity) group — the granularity of
// incremental invalidation.
type entKey struct {
	rel string
	eid relation.Value
}

// litEnt returns the entity of a literal (via its block).
func (sv *Solver) litEnt(id int32) entKey {
	b := sv.blocks[sv.litBlk[id]]
	return entKey{b.Key.Rel, b.Key.EID}
}

// patchCtx carries the dense per-block translation tables of one
// ApplyDelta run. obMap/noMap/newDirty are re-keyed after the patched
// solver's component reorder so every consumer sees final block indices.
type patchCtx struct {
	obMap    []int32 // old block -> new block index, -1 when gone
	noMap    []int32 // new block -> old block index, -1 when new
	oldRe    []bool  // old block's entity is re-ground dirty (rules re-derived)
	newDirty []bool  // new block's entity is delta-touched (state rebuilt)
	// posMap, non-nil only when the delta deletes tuples, maps each old
	// block's member positions to their post-delete positions (-1 =
	// member deleted); a nil row means the block's positions are stable.
	posMap [][]int32
}

// ApplyDelta applies the delta to the solver's specification and returns
// a patched solver, leaving the receiver fully usable (concurrent
// queries on it remain safe). Only entities the delta touches lose their
// ground rules, base propagation and component memos; everything else is
// carried over — tuple deletes included, which remap surviving rules and
// descriptors instead of rebuilding the touched relation. The patched
// solver's touched components are cold until the next
// whole-specification verdict (Consistent) searches them. The patched
// solver's Spec is the patched specification, and its PatchStats report
// how long applying the delta to the specification took.
func (sv *Solver) ApplyDelta(d *spec.Delta) (*Solver, error) {
	t0 := time.Now()
	newSpec, info, err := d.Apply(sv.Spec)
	if err != nil {
		return nil, err
	}
	specApply := time.Since(t0)
	if sv.unitConflict {
		// Unit conflicts belong to no rule segment, so whether one
		// survives the delta is unknowable without re-grounding.
		return sv.fullRebuild(newSpec, specApply)
	}

	out := &Solver{
		Spec:  newSpec,
		relOf: make(map[string]*relation.TemporalInstance),
		// Share the predecessor's counter sink: the lineage's engine
		// counters stay monotonic across incremental patches.
		stats: sv.stats,

		cdcl:       sv.cdcl,
		cdclBudget: sv.cdclBudget,
	}
	out.SetWorkers(sv.workers)
	if err := out.buildBlocksFrom(sv, info); err != nil {
		return nil, err
	}
	stats := &PatchStats{SpecApply: specApply}
	out.patch = stats

	dirty, reGround, added, err := out.dirtyEntities(sv, d)
	if err != nil {
		return nil, err
	}
	if dirty == nil {
		// An added constraint denies unconditionally (empty body, false
		// head): the patched spec is inconsistent regardless of orders,
		// and the conflict has no entity to attribute. Rebuild cold.
		return sv.fullRebuild(newSpec, specApply)
	}

	// Dense old↔new block translation and per-block dirtiness, computed
	// once: the rule, component and base phases below are all indexed by
	// block, and per-probe map hashing would dominate the patch cost.
	ctx := &patchCtx{
		obMap:    make([]int32, len(sv.blocks)),
		noMap:    make([]int32, len(out.blocks)),
		oldRe:    make([]bool, len(sv.blocks)),
		newDirty: make([]bool, len(out.blocks)),
	}
	for i := range ctx.noMap {
		ctx.noMap[i] = -1
	}
	for obi, b := range sv.blocks {
		if nbi, ok := out.blockOf[b.Key]; ok {
			ctx.obMap[obi] = int32(nbi)
			ctx.noMap[nbi] = int32(obi)
		} else {
			ctx.obMap[obi] = -1
		}
	}
	// Dirty sets are small; mark their blocks by key lookup instead of
	// probing the hash per block.
	for k := range dirty {
		r := out.relOf[k.rel]
		for _, ai := range r.Schema.NonEIDIndexes() {
			key := BlockKey{Rel: k.rel, Attr: ai, EID: k.eid}
			if nbi, ok := out.blockOf[key]; ok {
				ctx.newDirty[nbi] = true
			}
		}
	}
	for k := range reGround {
		r := out.relOf[k.rel]
		for _, ai := range r.Schema.NonEIDIndexes() {
			if obi, ok := sv.blockOf[BlockKey{Rel: k.rel, Attr: ai, EID: k.eid}]; ok {
				ctx.oldRe[obi] = true
			}
		}
	}
	// Per-block position maps for the delete remap: survivors keep their
	// relative order, so a member's new position is the count of
	// survivors before it.
	if len(info.TupleMap) > 0 {
		ctx.posMap = make([][]int32, len(sv.blocks))
		for obi, b := range sv.blocks {
			tm := info.TupleMap[b.Key.Rel]
			if tm == nil {
				continue
			}
			var pm []int32
			next := int32(0)
			for p, ti := range b.Members {
				if tm[ti] < 0 {
					if pm == nil {
						pm = make([]int32, len(b.Members))
						for q := 0; q < p; q++ {
							pm[q] = int32(q)
						}
					}
					pm[p] = -1
					continue
				}
				if pm != nil {
					pm[p] = next
				}
				next++
			}
			ctx.posMap[obi] = pm
		}
	}
	// Entities with deletes but no inserts: their surviving rules remap;
	// re-ground entities re-derive everything instead.
	delOnly := make(map[entKey]bool)
	for _, td := range d.Deletes {
		k := entKey{td.Rel, sv.relOf[td.Rel].EID(td.Index)}
		if !reGround[k] {
			delOnly[k] = true
		}
	}

	if err := out.rebuildRules(sv, d, info, reGround, delOnly, added, ctx, stats); err != nil {
		return nil, err
	}
	out.buildComponents()
	// The reorder permutes the patched solver's blocks; re-key the
	// translation tables so the state phases see final indices.
	if perm := out.reorderByComponent(); perm != nil {
		for obi, nbi := range ctx.obMap {
			if nbi >= 0 {
				ctx.obMap[obi] = perm[nbi]
			}
		}
		noMap := make([]int32, len(out.blocks))
		newDirty := make([]bool, len(out.blocks))
		for i := range noMap {
			noMap[i] = -1
		}
		for nbi, obi := range ctx.noMap {
			noMap[perm[nbi]] = obi
			newDirty[perm[nbi]] = ctx.newDirty[nbi]
		}
		ctx.noMap, ctx.newDirty = noMap, newDirty
	}
	out.indexRules()
	// Share the predecessor's warm state pool: states are sized on Get,
	// so queries against either generation recycle the same arenas.
	out.statePool = sv.statePool

	stateDirty := out.stateDirtyBlocks(d, ctx)
	reuse := out.planReuse(sv, ctx, stateDirty)
	out.initBaseFrom(sv, ctx, reuse)
	out.transferMemos(sv, ctx, reuse, stats)

	reusedBlocks := 0
	for _, ru := range reuse {
		reusedBlocks += len(out.comps[ru.nci].blocks)
	}
	stats.TouchedBlocks = len(out.blocks) - reusedBlocks
	stats.ReusedComps = len(reuse)
	stats.RebuiltComps = len(out.comps) - len(reuse)
	return out, nil
}

// fullRebuild is ApplyDelta's fallback: ground the patched specification
// from scratch and record the cold patch stats.
func (sv *Solver) fullRebuild(newSpec *spec.Spec, specApply time.Duration) (*Solver, error) {
	out, err := New(newSpec)
	if err != nil {
		return nil, err
	}
	out.SetWorkers(sv.workers)
	out.cdcl, out.cdclBudget = sv.cdcl, sv.cdclBudget
	// Keep the lineage's counters monotonic: fold the rebuild's own
	// grounding effort into the predecessor's sink and adopt it.
	out.SetStatsSink(sv.stats)
	out.patch = &PatchStats{
		FullRebuild: true, SpecApply: specApply, TouchedBlocks: len(out.blocks),
		RebuiltComps: len(out.comps), RegroundRules: out.nRules,
	}
	return out, nil
}

// buildBlocksFrom rebuilds the block table, reusing the old solver's
// work wherever the delta allows: relations the delta left untouched
// (COW pointer equality) share every block descriptor; relations that
// only gained tuples and order pairs keep untouched entities'
// descriptors and rebuild only grown ones; relations with deletes remap
// their descriptors through the delta's tuple map (remapRelationBlocks)
// — no relation ever pays a full entity-grouping sweep. Descriptors are
// immutable once built; the solver-local index tables (blockOf, literal
// space) are laid out fresh.
func (out *Solver) buildBlocksFrom(old *Solver, info *spec.ApplyInfo) error {
	if len(info.TupleMap) == 0 {
		// No deletes anywhere: every surviving block keeps its old index,
		// so the whole block table and key index carry over — descriptors
		// of entities with appended tuples are swapped in place, brand-new
		// blocks append at the end. This skips both the entity-grouping
		// sweep and the per-block key-map rebuild.
		out.blocks = append(make([]*Block, 0, len(old.blocks)+4), old.blocks...)
		out.blockOf = maps.Clone(old.blockOf)
		for _, r := range out.Spec.Relations {
			out.relOf[r.Schema.Name] = r
			if old.relOf[r.Schema.Name] != r {
				out.patchRelationBlocks(old, r, old.relOf[r.Schema.Name].Len())
			}
		}
		return out.assignLitSpace()
	}
	// Deletes somewhere: descriptors are rebuilt per relation, but never
	// from a full sweep — untouched relations share wholesale, deleted
	// relations remap, appended-only relations patch.
	out.blockOf = make(map[BlockKey]int, len(old.blocks))
	byRel := make(map[string][]*Block, len(old.Spec.Relations))
	for _, b := range old.blocks {
		byRel[b.Key.Rel] = append(byRel[b.Key.Rel], b)
	}
	for _, r := range out.Spec.Relations {
		name := r.Schema.Name
		switch {
		case old.relOf[name] == r:
			out.relOf[name] = r
			for _, b := range byRel[name] {
				out.blockOf[b.Key] = len(out.blocks)
				out.blocks = append(out.blocks, b)
			}
		case info.TupleMap[name] != nil:
			out.remapRelationBlocks(byRel[name], r, info.TupleMap[name])
		default:
			// Inserts and order adds only (some other relation had the
			// deletes): seed the table with the old descriptors, then
			// swap in fresh ones for grown entities.
			out.relOf[name] = r
			for _, b := range byRel[name] {
				out.blockOf[b.Key] = len(out.blocks)
				out.blocks = append(out.blocks, b)
			}
			out.patchRelationBlocks(old, r, old.relOf[name].Len())
		}
	}
	return out.assignLitSpace()
}

// patchRelationBlocks handles a relation whose delta only appended
// tuples (and possibly added order pairs): the tuple prefix — hence the
// membership of every entity without appended tuples — is unchanged, so
// those blocks stay shared at their current indices; entities with
// appended tuples get new descriptors over a shared fresh position
// table. The caller must have seeded out.blocks/out.blockOf with the
// relation's old descriptors.
func (out *Solver) patchRelationBlocks(old *Solver, r *relation.TemporalInstance, oldLen int) {
	// Members of every entity an appended tuple belongs to, in index
	// order (one pass over the prefix, one over the suffix). The eid
	// index map sees one insert per touched entity; member appends go to
	// the group slice, not through the map.
	idx := make(map[relation.Value]int, r.Len()-oldLen)
	groups := make([][]int, 0, r.Len()-oldLen)
	var eids []relation.Value
	for i := oldLen; i < r.Len(); i++ {
		if _, ok := idx[r.EID(i)]; !ok {
			idx[r.EID(i)] = len(groups)
			groups = append(groups, nil)
			eids = append(eids, r.EID(i))
		}
	}
	// Prefix members come from the old block descriptors where one
	// exists; only entities that were singletons (or brand new) need the
	// prefix scan, and those are rare.
	firstAttr := r.Schema.NonEIDIndexes()[0]
	var scanEids []relation.Value
	for gi, eid := range eids {
		if obi, ok := old.blockOf[BlockKey{Rel: r.Schema.Name, Attr: firstAttr, EID: eid}]; ok {
			m := old.blocks[obi].Members
			groups[gi] = append(make([]int, 0, len(m)+1), m...)
		} else {
			scanEids = append(scanEids, eid)
		}
	}
	for i := 0; i < oldLen && len(scanEids) > 0; i++ {
		eid := r.EID(i)
		for _, want := range scanEids {
			if eid == want {
				gi := idx[eid]
				groups[gi] = append(groups[gi], i)
				break
			}
		}
	}
	for i := oldLen; i < r.Len(); i++ {
		groups[idx[r.EID(i)]] = append(groups[idx[r.EID(i)]], i)
	}
	var pos []int
	posFor := func() []int {
		if pos == nil {
			pos = make([]int, r.Len())
			for i := range pos {
				pos[i] = -1
			}
			for _, members := range groups {
				if len(members) < 2 {
					continue
				}
				for p, ti := range members {
					pos[ti] = p
				}
			}
		}
		return pos
	}
	for gi, members := range groups {
		if len(members) < 2 {
			continue
		}
		for _, ai := range r.Schema.NonEIDIndexes() {
			key := BlockKey{Rel: r.Schema.Name, Attr: ai, EID: eids[gi]}
			b := &Block{Key: key, Members: members, Pos: posFor()}
			if bi, ok := out.blockOf[key]; ok {
				out.blocks[bi] = b // grown entity: swap in place
			} else {
				out.blockOf[key] = len(out.blocks)
				out.blocks = append(out.blocks, b)
			}
		}
	}
}

// remapRelationBlocks rebuilds one relation's block descriptors after
// deletes by translating the old descriptors through the delta's tuple
// map — the descriptor-level inverse of the grown-block path. Surviving
// members keep their relative order (untouched entities stay
// position-stable, which is what keeps their literals remappable),
// appended tuples extend their entity's member list, and a block whose
// entity drops below two surviving members disappears. The relation is
// never re-grouped from a full tuple sweep; only entities that had no
// block before (singletons, or brand new) and gained appended tuples pay
// a prefix scan.
func (out *Solver) remapRelationBlocks(oldBlocks []*Block, r *relation.TemporalInstance, tm []int) {
	name := r.Schema.Name
	out.relOf[name] = r
	nSurvive, firstDel := 0, len(tm)
	for i, ni := range tm {
		if ni >= 0 {
			nSurvive++
		} else if firstDel == len(tm) {
			firstDel = i
		}
	}
	// Appended tuples per entity (post-delta indices ≥ nSurvive), in
	// first-appearance order.
	var appendEids []relation.Value
	appends := make(map[relation.Value][]int)
	for i := nSurvive; i < r.Len(); i++ {
		eid := r.EID(i)
		if _, ok := appends[eid]; !ok {
			appendEids = append(appendEids, eid)
		}
		appends[eid] = append(appends[eid], i)
	}

	attrs := r.Schema.NonEIDIndexes()
	pos := make([]int, r.Len())
	for i := range pos {
		pos[i] = -1
	}
	emit := func(eid relation.Value, members []int) {
		if len(members) < 2 {
			return
		}
		for p, ti := range members {
			pos[ti] = p
		}
		for _, ai := range attrs {
			key := BlockKey{Rel: name, Attr: ai, EID: eid}
			out.blockOf[key] = len(out.blocks)
			out.blocks = append(out.blocks, &Block{Key: key, Members: members, Pos: pos})
		}
	}
	// One pass over the first attribute's old blocks (every multi-tuple
	// entity has exactly one) derives each surviving entity's member
	// list; every attribute's block shares it. An entity whose members all
	// lie below the first deleted index, and which gained no tuple, keeps
	// its member list verbatim (tm is the identity there), so the list is
	// shared with the predecessor; only the descriptor is new, over the
	// fresh position table — sharing whole descriptors would keep every
	// predecessor's relation-wide Pos table alive.
	firstAttr := attrs[0]
	hadBlock := make(map[relation.Value]bool, len(oldBlocks)/len(attrs))
	for _, b := range oldBlocks {
		if b.Key.Attr != firstAttr {
			continue
		}
		hadBlock[b.Key.EID] = true
		add := appends[b.Key.EID]
		if len(add) == 0 && b.Members[len(b.Members)-1] < firstDel {
			emit(b.Key.EID, b.Members)
			continue
		}
		members := make([]int, 0, len(b.Members)+len(add))
		for _, ti := range b.Members {
			if ni := tm[ti]; ni >= 0 {
				members = append(members, ni)
			}
		}
		members = append(members, add...)
		emit(b.Key.EID, members)
	}
	// Entities without an old block but with appended tuples: collect
	// their surviving prefix members, if any.
	var scanEids []relation.Value
	for _, eid := range appendEids {
		if !hadBlock[eid] {
			scanEids = append(scanEids, eid)
		}
	}
	prefix := make(map[relation.Value][]int, len(scanEids))
	for i := 0; i < nSurvive && len(scanEids) > 0; i++ {
		eid := r.EID(i)
		for _, want := range scanEids {
			if eid == want {
				prefix[eid] = append(prefix[eid], i)
				break
			}
		}
	}
	for _, eid := range scanEids {
		emit(eid, append(prefix[eid], appends[eid]...))
	}
}

// addedRules caches the grounding of the delta's added sources: they are
// derived once during dirty discovery and assembled into the arenas by
// rebuildRules, instead of grounding the same sources twice.
type addedRules struct {
	constraints map[string][]dc.GroundRule
	copies      map[string][]copyfn.CompatRule
}

// dirtyEntities computes the entities whose ground rules or base state
// may differ between the old and the patched solver, the subset whose
// surviving-segment rules must be re-derived rather than remapped
// (reGround: entities with inserted tuples — only membership growth
// creates rule instantiations no remap can produce), and the ground
// rules of the delta's added sources (see addedRules). A nil dirty map
// (with nil error) signals an unconditional conflict from an added
// constraint that cannot be attributed to any entity — the caller falls
// back to a full rebuild.
func (out *Solver) dirtyEntities(sv *Solver, d *spec.Delta) (map[entKey]bool, map[entKey]bool, *addedRules, error) {
	dirty := make(map[entKey]bool)
	reGround := make(map[entKey]bool)
	added := &addedRules{
		constraints: make(map[string][]dc.GroundRule),
		copies:      make(map[string][]copyfn.CompatRule),
	}

	// Membership changes. Inserts re-ground; deletes remap (delta.go's
	// package comment explains the split).
	for _, ti := range d.Inserts {
		r := out.relOf[ti.Rel]
		k := entKey{ti.Rel, ti.Tuple[r.Schema.EIDIndex]}
		dirty[k] = true
		reGround[k] = true
	}
	for _, td := range d.Deletes {
		dirty[entKey{td.Rel, sv.relOf[td.Rel].EID(td.Index)}] = true
	}

	// Dropped sources: the entities their old rules mention lose those
	// rules (segment skipped) and must re-propagate, but their surviving
	// segments' rules still remap.
	dropC := make(map[string]bool, len(d.DropConstraints))
	for _, n := range d.DropConstraints {
		dropC[n] = true
	}
	dropCf := make(map[string]bool, len(d.DropCopies))
	for _, n := range d.DropCopies {
		dropCf[n] = true
	}
	for _, seg := range sv.segs {
		if (seg.kind == segConstraint && !dropC[seg.name]) ||
			(seg.kind == segCopy && !dropCf[seg.name]) {
			continue
		}
		for ri := seg.ruleStart; ri < seg.ruleEnd; ri++ {
			for _, id := range sv.ruleBodyOf(ri) {
				dirty[sv.litEnt(id)] = true
			}
			if h := sv.ruleHead[ri]; h != headNone {
				dirty[sv.litEnt(h)] = true
			}
		}
		for ui := seg.unitStart; ui < seg.unitEnd; ui++ {
			dirty[sv.litEnt(sv.unitHeads[ui])] = true
		}
	}

	// Added sources: the entities their new rules mention gain rules and
	// must re-propagate; the added segments themselves are derived in
	// full, so surviving segments still remap over these entities.
	for _, c := range d.AddConstraints {
		grs, err := out.groundAdded(c.Name)
		if err != nil {
			return nil, nil, nil, err
		}
		added.constraints[c.Name] = grs
		for _, gr := range grs {
			if len(gr.Body) > 0 {
				dirty[entKey{c.Relation, out.relOf[c.Relation].EID(gr.Body[0].I)}] = true
			} else if gr.HeadFalse {
				return nil, nil, nil, nil // unconditional conflict: full rebuild
			} else {
				dirty[entKey{c.Relation, out.relOf[c.Relation].EID(gr.Head.I)}] = true
			}
		}
	}
	for _, cf := range d.AddCopies {
		cf, ok := out.copyByName(cf.Name)
		if !ok {
			continue
		}
		crs, err := cf.CompatRules(out.relOf[cf.Target], out.relOf[cf.Source], nil)
		if err != nil {
			return nil, nil, nil, err
		}
		added.copies[cf.Name] = crs
		for _, cr := range crs {
			dirty[entKey{cf.Target, out.relOf[cf.Target].EID(cr.TI)}] = true
			dirty[entKey{cf.Source, out.relOf[cf.Source].EID(cr.SI)}] = true
		}
	}
	return dirty, reGround, added, nil
}

// groundAdded grounds the named constraint of the patched specification.
func (out *Solver) groundAdded(name string) ([]dc.GroundRule, error) {
	for _, c := range out.Spec.Constraints {
		if c.Name == name {
			return dc.Ground(c, out.relOf[c.Relation])
		}
	}
	return nil, nil
}

// copyByName finds a copy function of the patched specification.
func (out *Solver) copyByName(name string) (*copyfn.CopyFunction, bool) {
	for _, cf := range out.Spec.Copies {
		if cf.Name == name {
			return cf, true
		}
	}
	return nil, false
}

// segSafety classifies how a constraint's ground rules depend on the
// tuples of their instantiation, deciding whether the delete remap may
// copy them (see the package comment's hidden-dependence subtlety).
type segSafety uint8

const (
	// safeBody: every variable appears in a body order atom, so a rule's
	// literals always mention every assigned tuple — deleting a tuple the
	// literals don't mention cannot invalidate the rule.
	safeBody segSafety = iota
	// safeHead: every variable appears in a body or head atom; literals
	// cover the assignment exactly when the rule kept its head (HeadFalse
	// instantiations hide the head tuple), so headNone rules of
	// delete-touched entities must be re-derived.
	safeHead
	// unsafeSeg: some variable appears only in value comparisons; any
	// rule of a delete-touched entity can depend on an invisible tuple
	// and the whole entity must be re-derived for this constraint.
	unsafeSeg
)

// constraintSafety computes the segment's safety class from the
// constraint alone (no per-rule bookkeeping survives grounding).
func constraintSafety(c *dc.Constraint) segSafety {
	mentioned := make(map[string]bool, len(c.Vars))
	for _, oa := range c.Orders {
		mentioned[oa.U] = true
		mentioned[oa.V] = true
	}
	covered := func() bool {
		for _, v := range c.Vars {
			if !mentioned[v] {
				return false
			}
		}
		return true
	}
	if covered() {
		return safeBody
	}
	mentioned[c.Head.U] = true
	mentioned[c.Head.V] = true
	if covered() {
		return safeHead
	}
	return unsafeSeg
}

// rebuildRules assembles the patched solver's rule arenas in canonical
// source order: per surviving source, remappable rules are copied from
// the old arenas by the position- and size-aware literal remap (dropping
// rules that mention deleted tuples) and re-ground entities' rules are
// re-derived; added sources are derived in full. Copy functions whose
// mappings survived verbatim (no deletes in either relation) copy their
// whole segment: inserts never create mappings, so no compat rule can
// have appeared or vanished.
func (out *Solver) rebuildRules(sv *Solver, d *spec.Delta, info *spec.ApplyInfo, reGround, delOnly map[entKey]bool, added *addedRules, ctx *patchCtx, stats *PatchStats) error {
	// Presize the arenas to the old solver's — most rules carry over.
	out.ruleBody = make([]int32, 0, len(sv.ruleBody)+16)
	out.ruleHead = make([]int32, 0, len(sv.ruleHead)+8)
	out.ruleStart = make([]int32, 0, len(sv.ruleStart)+8)
	out.ruleStart = append(out.ruleStart, 0)

	// remap translates one literal of a surviving rule, or returns -1
	// when a mentioned member was deleted (the rule instantiation died
	// with it). Member positions shift through the block's position map
	// when its entity lost tuples and carry over verbatim otherwise, and
	// the within-block offset is re-encoded against the NEW block size —
	// the encoding i·n+j depends on n, which grows under inserts and
	// shrinks under deletes.
	remap := func(id int32) int32 {
		obi := sv.litBlk[id]
		rem := id - sv.litOff[obi]
		nOld := sv.blockN[obi]
		i, j := rem/nOld, rem%nOld
		if ctx.posMap != nil {
			if pm := ctx.posMap[obi]; pm != nil {
				i, j = pm[i], pm[j]
				if i < 0 || j < 0 {
					return -1
				}
			}
		}
		nbi := ctx.obMap[obi]
		if nbi < 0 {
			return -1 // block gone: every pair mentioned a deleted member
		}
		return out.litOff[nbi] + i*out.blockN[nbi] + j
	}
	// copyRule transfers one CSR rule, dropping it whole when any literal
	// maps to a deleted member.
	copyRule := func(ri int32) {
		mark := len(out.ruleBody)
		for _, id := range sv.ruleBodyOf(ri) {
			nid := remap(id)
			if nid < 0 {
				out.ruleBody = out.ruleBody[:mark]
				stats.DroppedRules++
				return
			}
			out.ruleBody = append(out.ruleBody, nid)
		}
		h := sv.ruleHead[ri]
		if h != headNone {
			if h = remap(h); h < 0 {
				out.ruleBody = out.ruleBody[:mark]
				stats.DroppedRules++
				return
			}
		}
		out.ruleStart = append(out.ruleStart, int32(len(out.ruleBody)))
		out.ruleHead = append(out.ruleHead, h)
		out.nRules++
		stats.CopiedRules++
	}
	// copyable reports whether the rule may transfer at all: rules
	// touching a skip-marked block (re-ground entities, plus per-segment
	// safety fallbacks) are re-derived instead.
	copyable := func(ri int32, skip []bool) bool {
		for _, id := range sv.ruleBodyOf(ri) {
			if skip[sv.litBlk[id]] {
				return false
			}
		}
		if h := sv.ruleHead[ri]; h != headNone && skip[sv.litBlk[h]] {
			return false
		}
		return true
	}
	// markEnt adds one entity's old blocks to a skip mask.
	markEnt := func(skip []bool, k entKey) {
		r := sv.relOf[k.rel]
		if r == nil {
			return
		}
		for _, ai := range r.Schema.NonEIDIndexes() {
			if obi, ok := sv.blockOf[BlockKey{Rel: k.rel, Attr: ai, EID: k.eid}]; ok {
				skip[obi] = true
			}
		}
	}

	oldSeg := make(map[string]*ruleSeg, len(sv.segs))
	for i := range sv.segs {
		seg := &sv.segs[i]
		oldSeg[segID(seg.kind, seg.name)] = seg
	}
	addedC := make(map[string]bool, len(d.AddConstraints))
	for _, c := range d.AddConstraints {
		addedC[c.Name] = true
	}
	addedCf := make(map[string]bool, len(d.AddCopies))
	for _, cf := range d.AddCopies {
		addedCf[cf.Name] = true
	}
	relReGround := make(map[string]bool)
	for k := range reGround {
		relReGround[k.rel] = true
	}
	// Entity groups to re-derive, per relation and optional per-segment
	// extras, one tuple scan each — the re-grounding input (single-tuple
	// entities included: a value-trigger constraint can deny on one tuple
	// alone). The extras-free groups are cached per relation.
	groupCache := make(map[string][]relation.EntityGroup)
	groupsFor := func(rel string, extras map[entKey]bool) []relation.EntityGroup {
		if !relReGround[rel] && len(extras) == 0 {
			return nil
		}
		if len(extras) == 0 {
			if g, ok := groupCache[rel]; ok {
				return g
			}
		}
		r := out.relOf[rel]
		idx := make(map[relation.Value]int)
		var groups []relation.EntityGroup
		for i := range r.Tuples {
			eid := r.EID(i)
			k := entKey{rel, eid}
			if !reGround[k] && !extras[k] {
				continue
			}
			gi, ok := idx[eid]
			if !ok {
				gi = len(groups)
				idx[eid] = gi
				groups = append(groups, relation.EntityGroup{EID: eid})
			}
			groups[gi].Members = append(groups[gi].Members, i)
		}
		if len(extras) == 0 {
			groupCache[rel] = groups
		}
		return groups
	}

	before := out.nRules
	for _, c := range out.Spec.Constraints {
		out.beginSeg(segConstraint, c.Name)
		seg := oldSeg[segID(segConstraint, c.Name)]
		if addedC[c.Name] || seg == nil {
			grs, cached := added.constraints[c.Name]
			if !cached {
				var err error
				if grs, err = dc.Ground(c, out.relOf[c.Relation]); err != nil {
					return err
				}
			}
			if err := out.addConstraintRules(c.Relation, grs); err != nil {
				return err
			}
		} else {
			// Delete-touched entities whose rules this constraint's
			// safety class cannot guarantee remappable fall back to
			// re-derivation alongside the re-ground entities.
			var extras map[entKey]bool
			addExtra := func(k entKey) {
				if extras == nil {
					extras = make(map[entKey]bool)
				}
				extras[k] = true
			}
			if len(delOnly) > 0 {
				switch constraintSafety(c) {
				case safeBody:
				case safeHead:
					for ri := seg.ruleStart; ri < seg.ruleEnd; ri++ {
						if sv.ruleHead[ri] != headNone {
							continue
						}
						if k := sv.litEnt(sv.ruleBody[sv.ruleStart[ri]]); delOnly[k] {
							addExtra(k)
						}
					}
				default:
					for k := range delOnly {
						if k.rel == c.Relation {
							addExtra(k)
						}
					}
				}
			}
			skip := ctx.oldRe
			if len(extras) > 0 {
				skip = append([]bool(nil), ctx.oldRe...)
				for k := range extras {
					markEnt(skip, k)
				}
			}
			for ri := seg.ruleStart; ri < seg.ruleEnd; ri++ {
				if copyable(ri, skip) {
					copyRule(ri)
				}
			}
			for ui := seg.unitStart; ui < seg.unitEnd; ui++ {
				uh := sv.unitHeads[ui]
				if skip[sv.litBlk[uh]] {
					continue
				}
				if nid := remap(uh); nid >= 0 {
					out.unitHeads = append(out.unitHeads, nid)
					out.nRules++
					stats.CopiedRules++
				} else {
					stats.DroppedRules++
				}
			}
			if groups := groupsFor(c.Relation, extras); len(groups) > 0 {
				grs, err := dc.GroundGroups(c, out.relOf[c.Relation], groups)
				if err != nil {
					return err
				}
				if err := out.addConstraintRules(c.Relation, grs); err != nil {
					return err
				}
			}
		}
		out.endSeg()
	}
	for _, cf := range out.Spec.Copies {
		out.beginSeg(segCopy, cf.Name)
		seg := oldSeg[segID(segCopy, cf.Name)]
		if addedCf[cf.Name] || seg == nil {
			crs, cached := added.copies[cf.Name]
			if !cached {
				var err error
				if crs, err = cf.CompatRules(out.relOf[cf.Target], out.relOf[cf.Source], nil); err != nil {
					return err
				}
			}
			if err := out.addCopyRules(cf, crs); err != nil {
				return err
			}
		} else if info.TupleMap[cf.Target] == nil && info.TupleMap[cf.Source] == nil {
			// Mappings survived verbatim and every mapped tuple kept its
			// position: the compat rule set is unchanged — copy it whole
			// (remap re-encodes against grown block sizes).
			for ri := seg.ruleStart; ri < seg.ruleEnd; ri++ {
				copyRule(ri)
			}
		} else {
			// Deletes in the target or source relation: copy rules have
			// no hidden dependencies (every mapped tuple appears in a
			// literal), so surviving rules remap, rules on deleted
			// mappings drop, and only re-ground entities re-derive.
			for ri := seg.ruleStart; ri < seg.ruleEnd; ri++ {
				if copyable(ri, ctx.oldRe) {
					copyRule(ri)
				}
			}
			// Copy rules never produce unit heads (their body is the
			// source-order literal), so only the CSR range carries over.
			// Re-derivation pairs only the mapping entries of (target
			// entity, source entity) groups with a re-ground side: every
			// compat rule's tuples lie in one such group.
			if relReGround[cf.Target] || relReGround[cf.Source] {
				crs, err := cf.CompatRules(out.relOf[cf.Target], out.relOf[cf.Source],
					func(te, se relation.Value) bool {
						return reGround[entKey{cf.Target, te}] || reGround[entKey{cf.Source, se}]
					})
				if err != nil {
					return err
				}
				if err := out.addCopyRules(cf, crs); err != nil {
					return err
				}
			}
		}
		out.endSeg()
	}
	stats.RegroundRules = out.nRules - before - stats.CopiedRules
	return nil
}

// segID keys a segment by kind and source name.
func segID(kind segKind, name string) string {
	if kind == segConstraint {
		return "c:" + name
	}
	return "f:" + name
}

// stateDirtyBlocks marks the patched solver's blocks whose base state
// must be rebuilt: blocks of delta-touched entities (inserted, deleted,
// or mentioned by added/dropped sources), plus blocks that only gained
// base-order pairs (order adds leave rules alone but change the
// propagated base).
func (out *Solver) stateDirtyBlocks(d *spec.Delta, ctx *patchCtx) []bool {
	sd := make([]bool, len(out.blocks))
	copy(sd, ctx.newDirty)
	for _, oa := range d.Orders {
		r := out.relOf[oa.Rel]
		ai, _ := r.Schema.AttrIndex(oa.Attr)
		if bi, ok := out.blockOf[BlockKey{Rel: oa.Rel, Attr: ai, EID: r.EID(oa.I)}]; ok {
			sd[bi] = true
		}
	}
	return sd
}

// compReuse pairs a patched component with its identical predecessor.
type compReuse struct {
	nci, oci int
}

// planReuse finds the components whose sub-problem is provably unchanged:
// every block clean, and the old component covering those blocks held
// exactly the same block set (otherwise rules into since-dirtied blocks
// were dropped and the base spans may over-approximate). A predecessor
// with a base conflict has nothing to reuse.
func (out *Solver) planReuse(sv *Solver, ctx *patchCtx, stateDirty []bool) []compReuse {
	if sv.baseConflict {
		// The predecessor's base arena stopped at the conflict: none of
		// its spans is a fixpoint, and no component was ever searched.
		return nil
	}
	var reuse []compReuse
	for nci, nc := range out.comps {
		clean := true
		for _, nbi := range nc.blocks {
			if stateDirty[nbi] {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		ob0 := ctx.noMap[nc.blocks[0]]
		if ob0 < 0 {
			continue
		}
		oci := sv.compOf[ob0]
		oc := sv.comps[oci]
		if len(oc.blocks) != len(nc.blocks) {
			continue
		}
		match := true
		for _, obi := range oc.blocks {
			nbi := ctx.obMap[obi]
			if nbi < 0 || out.compOf[nbi] != nci {
				match = false
				break
			}
		}
		if match {
			reuse = append(reuse, compReuse{nci: nci, oci: oci})
		}
	}
	return reuse
}

// compAligned reports whether a reused component's blocks sit in the
// same relative order as its predecessor's — then the two contiguous
// spans have byte-for-byte identical layouts and transfer as one copy
// (or one shared slice, for memos).
func compAligned(nc, oc *component, ctx *patchCtx) bool {
	for k, nbi := range nc.blocks {
		if ctx.noMap[nbi] != int32(oc.blocks[k]) {
			return false
		}
	}
	return true
}

// initBaseFrom builds the patched base state: reused components' spans
// are copied from the old base (identical seeds, identical rules —
// identical fixpoint; one flat memcpy when the block layout aligns),
// everything else is re-seeded from the patched specification's orders
// and re-propagated. Seeding shares the cold path's per-member adjacency
// sweep (seedBlock), so neither path ever sorts a pair set.
func (out *Solver) initBaseFrom(sv *Solver, ctx *patchCtx, reuse []compReuse) {
	st := &state{a: make([]byte, out.numLits)}
	out.base = st
	if out.unitConflict {
		out.baseConflict = true
		return
	}
	reused := make([]bool, len(out.blocks))
	for _, ru := range reuse {
		nc, oc := out.comps[ru.nci], sv.comps[ru.oci]
		for _, nbi := range nc.blocks {
			reused[nbi] = true
		}
		if compAligned(nc, oc, ctx) {
			copy(st.a[nc.lo:nc.hi], sv.base.a[oc.lo:oc.hi])
			continue
		}
		for _, nbi := range nc.blocks {
			obi := int(ctx.noMap[nbi])
			nlo, nhi := out.span(nbi)
			olo, _ := sv.span(obi)
			copy(st.a[nlo:nhi], sv.base.a[olo:olo+(nhi-nlo)])
		}
	}
	for bi, b := range out.blocks {
		if reused[bi] {
			continue
		}
		out.seedBlock(st, bi, b)
	}
	// Unit heads: re-asserting into a reused span is a no-op (the value
	// is already set), so no filtering is needed.
	st.q = append(st.q, out.unitHeads...)
	if !out.propagate(st) {
		out.baseConflict = true
	}
	st.trail = nil
	st.q = nil
}

// transferMemos pre-fills reused components' base verdicts and
// sub-model spans from the old solver. Aligned spans are shared, not
// copied: memos are immutable once published. Components the old solver
// had not yet searched stay cold (their memo fills on first use as
// usual). The new solver is private until ApplyDelta returns, so the
// memo fields are written directly; the done store publishes them.
func (out *Solver) transferMemos(sv *Solver, ctx *patchCtx, reuse []compReuse, stats *PatchStats) {
	for _, ru := range reuse {
		oc := sv.comps[ru.oci]
		if !oc.done.Load() {
			continue
		}
		nc := out.comps[ru.nci]
		var arena []byte
		if oc.baseSat {
			if compAligned(nc, oc, ctx) {
				arena = oc.baseArena
				// The learned-clause store rides along with the memo:
				// clauses are span-relative and the component's layout is
				// identical, so the immutable store is shared verbatim.
				// Non-aligned reuse and touched components keep the nil
				// store — dropping learned clauses is always sound (they
				// are an optimization, re-derived on demand).
				if db := oc.learned.Load(); db != nil {
					nc.learned.Store(db)
				}
			} else {
				arena = make([]byte, nc.hi-nc.lo)
				for _, nbi := range nc.blocks {
					obi := int(ctx.noMap[nbi])
					nlo, nhi := out.span(nbi)
					olo, _ := sv.span(obi)
					copy(arena[nlo-nc.lo:nhi-nc.lo], oc.baseArena[olo-oc.lo:olo-oc.lo+(nhi-nlo)])
				}
			}
		}
		nc.baseSat = oc.baseSat
		nc.baseArena = arena
		nc.done.Store(true)
		stats.MemoComps++
	}
}
