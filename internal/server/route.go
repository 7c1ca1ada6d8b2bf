package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"currency/internal/api"
	"currency/internal/chaos"
	"currency/internal/core"
	"currency/internal/obs"
	"currency/internal/osolve"
	"currency/internal/parse"
	"currency/internal/query"
	"currency/internal/relation"
	"currency/internal/tractable"
)

// decide runs one decision request against a registered entry, picking the
// engine: the Section-6 PTIME algorithms when the specification is
// constraint-free (and, for the query-dependent problems, the query is
// SP), the cached exact reasoner otherwise. This is the auto-routing layer
// — the server-side counterpart of the library's Auto* functions, extended
// to every decision problem. It also owns the decision metrics: one
// latency observation per decision problem and one routing count per
// engine, covering batch items and programmatic calls alike.
func (s *Server) decide(ctx context.Context, e *Entry, req *api.DecisionRequest) api.DecisionResult {
	if req.BudgetMS > 0 {
		// A per-request budget tightens (never extends) the server's
		// per-op deadline: WithTimeout keeps the earlier of the two.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.BudgetMS)*time.Millisecond)
		defer cancel()
	}
	t0 := time.Now()
	res, err := s.decideErr(ctx, e, req)
	if err != nil {
		res = api.DecisionResult{Error: err.Error()}
	}
	res.Op = req.Op
	res.SpecVersion = e.Version
	s.metrics.decDur.With(string(req.Op)).Observe(time.Since(t0))
	if res.Engine != "" {
		s.metrics.decided.With(res.Engine).Inc()
	}
	if tr := obs.From(ctx); tr != nil {
		detail := "engine=" + res.Engine
		if res.Degraded {
			detail += " degraded=true reason=" + res.Reason
		} else if res.Indeterminate {
			detail += " indeterminate=true reason=" + res.Reason
		}
		if res.Error != "" {
			detail += " error=" + res.Error
		}
		tr.AddSpan("decide:"+string(req.Op), t0, detail)
	}
	return res
}

func (s *Server) decideErr(ctx context.Context, e *Entry, req *api.DecisionRequest) (api.DecisionResult, error) {
	var q *query.Query
	var err error
	switch req.Op {
	case api.OpCertainAnswers, api.OpCurrencyPreserving, api.OpBoundedCopying:
		q, err = resolveQuery(e, req.Query)
		if err != nil {
			return api.DecisionResult{}, err
		}
	case api.OpConsistent, api.OpCertainOrder, api.OpDeterministic:
	default:
		return api.DecisionResult{}, fmt.Errorf("unknown op %q", req.Op)
	}

	// An explicit extension space forces the exact engine: the PTIME
	// CPP/BCP algorithms work in their own per-entity atom space and would
	// silently answer a different question.
	wantsSpace := req.Space != "" &&
		(req.Op == api.OpCurrencyPreserving || req.Op == api.OpBoundedCopying)
	if !req.Exact && !wantsSpace && ptimeEligible(e, req.Op, q) {
		return s.decidePTime(e, req, q)
	}
	return s.decideExact(ctx, e, req, q)
}

// ptimeEligible reports whether a Section-6 polynomial algorithm covers
// the request: no denial constraints, and an SP query for the
// query-dependent problems (Theorems 6.1 and 6.4, Proposition 6.3).
func ptimeEligible(e *Entry, op api.Op, q *query.Query) bool {
	if len(e.File.Spec.Constraints) > 0 {
		return false
	}
	switch op {
	case api.OpConsistent, api.OpCertainOrder, api.OpDeterministic:
		return true
	default:
		return q != nil && query.IsSP(q)
	}
}

func (s *Server) decidePTime(e *Entry, req *api.DecisionRequest, q *query.Query) (api.DecisionResult, error) {
	out := api.DecisionResult{Engine: api.EnginePTime}
	v, err := e.view()
	if err != nil {
		return out, err
	}
	switch req.Op {
	case api.OpConsistent:
		ok := v.Consistent()
		out.Holds = &ok

	case api.OpCertainOrder:
		reqs, err := resolveOrders(e, req.Orders)
		if err != nil {
			return out, err
		}
		ok, err := v.CertainOrder(ptimeOrders(reqs))
		if err != nil {
			return out, err
		}
		out.Holds = &ok
		out.VacuouslyTrue = ok && !v.Consistent()

	case api.OpDeterministic:
		ok, err := deterministicPTime(v, e, req.Relation)
		if err != nil {
			return out, err
		}
		out.Holds = &ok
		out.VacuouslyTrue = ok && !v.Consistent()

	case api.OpCertainAnswers:
		res, consistent, err := v.CertainAnswersSP(q)
		if err != nil {
			return out, err
		}
		if !consistent {
			out.VacuouslyTrue = true
		} else {
			out.Answers = marshalResult(res)
		}

	case api.OpCurrencyPreserving:
		ok, err := tractable.CurrencyPreservingSP(e.File.Spec, q)
		if err != nil {
			return out, err
		}
		out.Holds = &ok

	case api.OpBoundedCopying:
		ok, witness, err := tractable.BoundedCopyingSP(e.File.Spec, q, req.K)
		if err != nil {
			return out, err
		}
		out.Holds = &ok
		if witness != "" {
			out.Witness = []string{witness}
		}
	}
	return out, nil
}

// ptimeOrders converts resolved order requirements to the tractable form.
func ptimeOrders(reqs []core.OrderRequirement) []tractable.OrderRequirement {
	out := make([]tractable.OrderRequirement, len(reqs))
	for i, r := range reqs {
		out[i] = tractable.OrderRequirement{Rel: r.Rel, Attr: r.Attr, I: r.I, J: r.J}
	}
	return out
}

// deterministicPTime decides a deterministic request's relations (one, or
// all when rel is empty) on a view: true iff every one is deterministic.
func deterministicPTime(v *tractable.View, e *Entry, rel string) (bool, error) {
	rels, err := targetRelations(e, rel)
	if err != nil {
		return false, err
	}
	for _, rel := range rels {
		if det, err := v.Deterministic(rel); err != nil || !det {
			return false, err
		}
	}
	return true, nil
}

func (s *Server) decideExact(ctx context.Context, e *Entry, req *api.DecisionRequest, q *query.Query) (api.DecisionResult, error) {
	out := api.DecisionResult{Engine: api.EngineExact}
	r, err := s.reasoner(ctx, e)
	if err != nil {
		return out, err
	}
	chaos.DecideStall.Hit()
	// vacuous annotates a true certain-order/deterministic verdict when
	// Mod(S) is empty. Best-effort under the remaining budget: the
	// verdict itself stands either way, so an interrupted consistency
	// probe just leaves the flag off.
	vacuous := func() bool {
		consistent, cerr := r.ConsistentCtx(ctx)
		return cerr == nil && !consistent
	}
	switch req.Op {
	case api.OpConsistent:
		ok, err := r.ConsistentCtx(ctx)
		if err != nil {
			return s.degrade(e, req, q, err)
		}
		out.Holds = &ok

	case api.OpCertainOrder:
		reqs, err := resolveOrders(e, req.Orders)
		if err != nil {
			return out, err
		}
		ok, err := r.CertainOrderCtx(ctx, reqs)
		if err != nil {
			if errors.Is(err, osolve.ErrInterrupted) {
				return s.degrade(e, req, q, err)
			}
			return out, err
		}
		out.Holds = &ok
		if ok && vacuous() {
			out.VacuouslyTrue = true
		}

	case api.OpDeterministic:
		rels, err := targetRelations(e, req.Relation)
		if err != nil {
			return out, err
		}
		ok := true
		for _, rel := range rels {
			det, err := r.DeterministicCtx(ctx, rel)
			if err != nil {
				if errors.Is(err, osolve.ErrInterrupted) {
					return s.degrade(e, req, q, err)
				}
				return out, err
			}
			if !det {
				ok = false
				break
			}
		}
		out.Holds = &ok
		if ok && vacuous() {
			out.VacuouslyTrue = true
		}

	case api.OpCertainAnswers:
		res, modEmpty, err := r.CertainAnswersCtx(ctx, q)
		if err != nil {
			if errors.Is(err, osolve.ErrInterrupted) {
				return s.degrade(e, req, q, err)
			}
			return out, err
		}
		if modEmpty {
			out.VacuouslyTrue = true
		} else {
			out.Answers = marshalResult(res)
		}

	case api.OpCurrencyPreserving:
		space, err := atomSpace(req.Space)
		if err != nil {
			return out, err
		}
		t0 := time.Now()
		ok, err := r.CurrencyPreservingInCtx(ctx, q, space)
		if err != nil {
			if errors.Is(err, osolve.ErrInterrupted) {
				return s.degrade(e, req, q, err)
			}
			return out, err
		}
		if tr := obs.From(ctx); tr != nil {
			tr.AddSpan("engine.preserve", t0, fmt.Sprintf("holds=%t", ok))
		}
		out.Holds = &ok

	case api.OpBoundedCopying:
		space, err := atomSpace(req.Space)
		if err != nil {
			return out, err
		}
		t0 := time.Now()
		ok, atoms, err := r.BoundedCopyingInCtx(ctx, q, req.K, space)
		if err != nil {
			if errors.Is(err, osolve.ErrInterrupted) {
				return s.degrade(e, req, q, err)
			}
			return out, err
		}
		if tr := obs.From(ctx); tr != nil {
			tr.AddSpan("engine.preserve", t0, fmt.Sprintf("holds=%t witness=%d", ok, len(atoms)))
		}
		out.Holds = &ok
		for _, a := range atoms {
			out.Witness = append(out.Witness, a.String())
		}
	}
	return out, nil
}

// degrade turns a budget-interrupted exact decision into the best
// still-sound answer. Dropping the denial constraints relaxes the
// specification — Mod(S) ⊆ Mod(S_relaxed) — so a Section-6 polynomial
// verdict on the relaxed spec transfers to S in exactly one direction:
//
//	consistent:    relaxed inconsistent ⇒ S inconsistent (Holds=false)
//	certain-order: holds over every relaxed model ⇒ over every S model
//	deterministic: all relaxed models agree ⇒ all S models agree
//	certain-answers (SP only): certain over relaxed ⇒ certain over S
//	               (the degraded answer set is a sound subset)
//
// When the transfer direction doesn't fire — or for CPP/BCP, whose
// extension-space semantics have no constraint-relaxation — the result
// is Indeterminate: no verdict, with Reason saying which budget
// tripped. Either way the request completes instead of hanging.
func (s *Server) degrade(e *Entry, req *api.DecisionRequest, q *query.Query, cause error) (api.DecisionResult, error) {
	reason := "interrupted"
	var ie *osolve.InterruptError
	if errors.As(cause, &ie) {
		reason = ie.Reason()
	}
	if reason == "deadline" {
		s.metrics.timeouts.Inc()
	}
	out := api.DecisionResult{Engine: api.EngineExact, Indeterminate: true, Reason: reason}
	if req.Op == api.OpCurrencyPreserving || req.Op == api.OpBoundedCopying {
		return out, nil
	}
	v, err := e.relaxedView()
	if err != nil {
		return out, nil
	}
	degraded := api.DecisionResult{Engine: api.EnginePTime, Degraded: true, Reason: reason}

	switch req.Op {
	case api.OpConsistent:
		if ok := v.Consistent(); !ok {
			out = degraded
			out.Holds = &ok
		}

	case api.OpCertainOrder:
		reqs, err := resolveOrders(e, req.Orders)
		if err != nil {
			break
		}
		if ok, err := v.CertainOrder(ptimeOrders(reqs)); err == nil && ok {
			out = degraded
			out.Holds = &ok
		}

	case api.OpDeterministic:
		if ok, err := deterministicPTime(v, e, req.Relation); err == nil && ok {
			out = degraded
			out.Holds = &ok
		}

	case api.OpCertainAnswers:
		if q == nil || !query.IsSP(q) {
			break
		}
		res, consistent, err := v.CertainAnswersSP(q)
		if err != nil {
			break
		}
		out = degraded
		if !consistent {
			// Mod(relaxed) empty forces Mod(S) empty: vacuous, exactly.
			out.VacuouslyTrue = true
		} else {
			out.Answers = marshalResult(res)
		}
	}
	if out.Degraded {
		s.metrics.degraded.Inc()
	}
	return out, nil
}

// reasoner returns the cached grounded reasoner for the entry, grounding
// on first use of this (id, version). The solver's component-level
// parallelism is bounded by the server's worker option: batch requests
// already fan out over a pool of that size, and one knob for both keeps a
// saturated batch from multiplying into workers² runnable goroutines.
// (SetWorkers happens inside the singleflighted factory, before the
// reasoner is published to any other goroutine.) Every engine built here
// flushes its counters into the server-wide stats sink, so the exported
// totals survive cache eviction. Traced requests get a "cache" span
// (hit=true also covers joining another request's in-flight grounding)
// and, when this request grounded, a nested "ground" span.
func (s *Server) reasoner(ctx context.Context, e *Entry) (*core.Reasoner, error) {
	t0 := time.Now()
	hit := true
	r, err := s.cache.Get(reasonerKey{id: e.ID, version: e.Version}, func() (*core.Reasoner, error) {
		hit = false
		g0 := time.Now()
		chaos.GroundStall.Hit()
		r, err := core.NewReasoner(e.File.Spec)
		if err != nil {
			return nil, err
		}
		r.Engine().SetWorkers(s.workers)
		r.Engine().SetStatsSink(&s.metrics.engine)
		if tr := obs.From(ctx); tr != nil {
			tr.AddSpan("ground", g0, fmt.Sprintf("spec=%s version=%d", e.ID, e.Version))
		}
		return r, nil
	})
	if tr := obs.From(ctx); tr != nil {
		tr.AddSpan("cache", t0, fmt.Sprintf("spec=%s version=%d hit=%t", e.ID, e.Version, hit))
	}
	return r, err
}

// resolveQuery materializes a QueryRef: a named query of the registered
// file, or inline source parsed on the fly.
func resolveQuery(e *Entry, ref *api.QueryRef) (*query.Query, error) {
	if ref == nil || (ref.Name == "" && ref.Source == "") {
		return nil, fmt.Errorf("request needs a query (name or source)")
	}
	if ref.Name != "" && ref.Source != "" {
		return nil, fmt.Errorf("query name and source are mutually exclusive")
	}
	if ref.Name != "" {
		q, ok := e.File.Query(ref.Name)
		if !ok {
			return nil, fmt.Errorf("spec %s declares no query %q", e.ID, ref.Name)
		}
		return q, nil
	}
	// Inline sources parse against the spec's schemas: the query grammar
	// needs relation declarations in scope to recognize atoms.
	var b strings.Builder
	for _, r := range e.File.Spec.Relations {
		fmt.Fprintf(&b, "relation %s(%s)\n", r.Schema.Name, strings.Join(r.Schema.Attrs, ", "))
	}
	b.WriteString(ref.Source)
	return parse.ParseQuery(b.String())
}

// resolveOrders translates wire order pairs (label- or index-addressed
// tuples) into core requirements.
func resolveOrders(e *Entry, pairs []api.OrderPair) ([]core.OrderRequirement, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("certain-order needs at least one order pair")
	}
	out := make([]core.OrderRequirement, len(pairs))
	for i, p := range pairs {
		r, ok := e.File.Spec.Relation(p.Rel)
		if !ok {
			return nil, fmt.Errorf("unknown relation %q", p.Rel)
		}
		if _, ok := r.Schema.AttrIndex(p.Attr); !ok {
			return nil, fmt.Errorf("unknown attribute %s.%s", p.Rel, p.Attr)
		}
		ti, err := resolveTuple(r, p.I)
		if err != nil {
			return nil, err
		}
		tj, err := resolveTuple(r, p.J)
		if err != nil {
			return nil, err
		}
		out[i] = core.OrderRequirement{Rel: p.Rel, Attr: p.Attr, I: ti, J: tj}
	}
	return out, nil
}

// resolveTuple maps a tuple reference to its index: declared labels take
// precedence, then a decimal zero-based index.
func resolveTuple(r *relation.TemporalInstance, ref string) (int, error) {
	if i, ok := r.LabelIndex(ref); ok {
		return i, nil
	}
	i, err := strconv.Atoi(ref)
	if err != nil || i < 0 || i >= r.Len() {
		return 0, fmt.Errorf("relation %s has no tuple %q", r.Schema.Name, ref)
	}
	return i, nil
}

// targetRelations expands a deterministic request's relation field: one
// named relation, or all of them when empty.
func targetRelations(e *Entry, rel string) ([]string, error) {
	if rel != "" {
		if _, ok := e.File.Spec.Relation(rel); !ok {
			return nil, fmt.Errorf("unknown relation %q", rel)
		}
		return []string{rel}, nil
	}
	out := make([]string, len(e.File.Spec.Relations))
	for i, r := range e.File.Spec.Relations {
		out[i] = r.Schema.Name
	}
	return out, nil
}

// atomSpace selects the CPP/BCP extension space.
func atomSpace(name string) (core.AtomSpace, error) {
	switch name {
	case "", "matching":
		return core.MatchingAtomSpace, nil
	case "full":
		return core.FullAtomSpace, nil
	case "conservative":
		return core.ConservativeAtomSpace, nil
	}
	return nil, fmt.Errorf("unknown extension space %q (want matching, full or conservative)", name)
}

// marshalResult converts a query result to wire form: strings as JSON
// strings, integers as JSON numbers, fresh nulls as {"fresh": id}.
func marshalResult(res *query.Result) *api.ResultSet {
	out := &api.ResultSet{Cols: append([]string(nil), res.Cols...), Rows: []api.AnswerRow{}}
	for _, row := range res.Rows {
		wire := make(api.AnswerRow, len(row))
		for i, v := range row {
			switch v.Kind {
			case relation.KindInt:
				wire[i] = v.Int
			case relation.KindFresh:
				wire[i] = map[string]int64{"fresh": v.Int}
			default:
				wire[i] = v.Str
			}
		}
		out.Rows = append(out.Rows, wire)
	}
	return out
}
