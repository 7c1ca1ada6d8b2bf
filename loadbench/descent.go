package main

// The traced run's layer descent: a sample of the workload's own
// requests, each timed at every layer it crosses, from the loopback
// client down to the engine. Spans are recorded here, around the calls
// into each layer (layers.go), not inside the program. A layer's self
// time is its row's p50 minus the p50 of the row below it, measured on
// the same requests, so the self times add up to the client round trip:
//
//	client.rtt = client.self + server.handler (+ harness.request, subtracted)
//	server.handler = server.handler_self + server.decide
//	server.decide = server.decide_self + core | tractable
//	core = core.self + osolve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"currency/internal/api"
	"currency/internal/core"
	"currency/internal/spec"
)

const (
	descentSample = 24 // sampled reads per op kind
	descentReps   = 8  // timed repetitions of each sampled read
	patchSample   = 12 // sampled deltas
	patchReps     = 4  // timed repetitions of each sampled delta
	setupRowReps  = 3  // parse/ground repetitions per specification
)

var opKey = map[api.Op]string{
	api.OpConsistent: "cps", api.OpCertainOrder: "cop",
	api.OpDeterministic: "dcip", api.OpCertainAnswers: "ccqa",
}

// row is one layer's timings over the sample.
type row []time.Duration

func (rw *row) time(f func()) {
	t0 := time.Now()
	f()
	*rw = append(*rw, time.Since(t0))
}

func (rw row) p50() float64 { return percentile(rw, 0.50) }

// allocs counts the heap allocations of one call.
func allocs(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// descend fills vals with the per-layer rows of the traced run.
func (r *runner) descend(vals map[string]float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed*43 + 11))
	if err := r.descendReads(vals, rng); err != nil {
		return err
	}
	if r.chains != nil {
		if err := r.descendPatch(vals, rng); err != nil {
			return err
		}
	}
	return r.descendSetup(vals)
}

// current returns spec k at the version the server now serves.
func (r *runner) current(k int) *spec.Spec {
	if r.chains != nil {
		return r.chains[k].cur
	}
	return r.specs[k].file.Spec
}

func (r *runner) descendReads(vals map[string]float64, rng *rand.Rand) error {
	cn := r.t.dial()
	defer cn.close()
	reasoners := make([]*core.Reasoner, numSpecs)
	reasoner := func(k int) (*core.Reasoner, error) {
		if reasoners[k] == nil {
			rs, err := coreGround(r.current(k))
			if err != nil {
				return nil, err
			}
			coreConsistent(rs)
			reasoners[k] = rs
		}
		return reasoners[k], nil
	}
	var tractSum, decideSum, fwdSum float64
	var fwdN int
	var enc bytes.Buffer
	for _, op := range r.w.reads {
		key := opKey[op]
		type item struct {
			k  int
			rq *readReq
		}
		items := make([]item, descentSample)
		for i := range items {
			k := rng.Intn(numSpecs)
			items[i] = item{k, &r.specs[k].pool[op][rng.Intn(poolPerOp)]}
		}
		var rtt, fwd, harness, handler, decide, below, engine, dec, encode row
		var handlerAllocs, harnessAllocs, decideAllocs, engineAllocs uint64
		var firstErr error
		check := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		// Pass 0 warms every path and counts allocations; the timed
		// passes follow.
		for rep := 0; rep <= descentReps; rep++ {
			for _, it := range items {
				id := r.specs[it.k].id
				o := r.t.owner(id)
				srv, cl := r.t.servers[o], cn.clients[o]
				path := "/specs/" + id + "/" + string(op)
				body := it.rq.body
				rr := it.rq.rr
				var rs *core.Reasoner
				if !r.w.ptime {
					var err error
					if rs, err = reasoner(it.k); err != nil {
						return err
					}
				}
				var res api.DecisionResult
				if rep == 0 {
					handlerAllocs += allocs(func() {
						if code := serveInMemory(serverHandler(srv), http.MethodPost, path, body); code != http.StatusOK {
							check(fmt.Errorf("in-memory %s: status %d", path, code))
						}
					})
					harnessAllocs += allocs(func() { serveInMemory(noopHandler, http.MethodPost, path, body) })
					decideAllocs += allocs(func() { _, err := serverDecide(srv, id, it.rq.req); check(err) })
					if rs != nil {
						engineAllocs += allocs(func() { _, err := osolveDecide(engineOf(rs), rr); check(err) })
					}
					continue
				}
				rtt.time(func() { _, err := clientDecide(cl, id, &it.rq.req); check(err) })
				if nh := r.t.nonHolder(id); nh >= 0 {
					fwd.time(func() { _, err := clientDecide(cn.clients[nh], id, &it.rq.req); check(err) })
				}
				harness.time(func() { serveInMemory(noopHandler, http.MethodPost, path, body) })
				handler.time(func() { serveInMemory(serverHandler(srv), http.MethodPost, path, body) })
				decide.time(func() { var err error; res, err = serverDecide(srv, id, it.rq.req); check(err) })
				dec.time(func() { _, err := apiDecode[api.DecisionRequest](body); check(err) })
				encode.time(func() { check(apiEncode(&enc, &res)) })
				if r.w.ptime {
					below.time(func() { _, err := tractableDecide(r.current(it.k), rr); check(err) })
				} else {
					below.time(func() { _, err := coreDecide(rs, rr); check(err) })
					engine.time(func() { _, err := osolveDecide(engineOf(rs), rr); check(err) })
				}
			}
		}
		if firstErr != nil {
			return fmt.Errorf("descent %s: %w", op, firstErr)
		}
		n := float64(len(items))
		h := handler.p50() - harness.p50()
		vals["client.rtt_us."+key] = rtt.p50()
		vals["client.self_us."+key] = rtt.p50() - h
		vals["harness.request_us."+key] = harness.p50()
		vals["server.handler_us."+key] = h
		vals["server.handler_self_us."+key] = h - decide.p50()
		vals["server.handler_allocs."+key] = float64(handlerAllocs-harnessAllocs) / n
		vals["api.decode_us."+key] = dec.p50()
		vals["api.encode_us."+key] = encode.p50()
		vals["server.decide_us."+key] = decide.p50()
		vals["server.decide_self_us."+key] = decide.p50() - below.p50()
		vals["server.decide_allocs."+key] = float64(decideAllocs) / n
		if r.w.ptime {
			vals["tractable.us."+key] = below.p50()
			tractSum += below.p50()
		} else {
			vals["core.us."+key] = below.p50()
			vals["core.self_us."+key] = below.p50() - engine.p50()
			vals["osolve.us."+key] = engine.p50()
			vals["osolve.allocs."+key] = float64(engineAllocs) / n
		}
		decideSum += decide.p50()
		if len(fwd) > 0 {
			fwdSum += fwd.p50() - rtt.p50()
			fwdN++
		}
	}
	if decideSum > 0 {
		vals["tractable.share"] = tractSum / decideSum
	}
	if fwdN > 0 {
		vals["cluster.forward_self_us"] = fwdSum / float64(fwdN)
	}
	return nil
}

// descendPatch times sampled deltas at every layer of the write path. A
// PATCH consumes its base version, so the HTTP-level rows patch fresh
// copies of the base registered (and grounded) on a private single-node
// server, untimed; Reasoner.Patched and Delta.Apply leave their inputs
// untouched and repeat on one warm base.
func (r *runner) descendPatch(vals map[string]float64, rng *rand.Rand) error {
	priv, err := startSUT(1)
	if err != nil {
		return err
	}
	defer priv.stop()
	pc := priv.dial()
	defer pc.close()
	srv := priv.servers[0]
	fresh := 0
	type item struct {
		src  string // the version the delta applies to
		cur  *spec.Spec
		d    *spec.Delta
		req  api.DeltaRequest
		body []byte
		base *core.Reasoner
		read *resolved // a deterministic read of the relation the delta inserts into
	}
	register := func(it *item) (string, error) {
		id := fmt.Sprintf("d%d", fresh)
		fresh++
		if err := serverRegister(srv, id, it.src); err != nil {
			return "", err
		}
		_, err := serverDecide(srv, id, api.DecisionRequest{Op: api.OpConsistent})
		return id, err
	}
	// Each sampled delta has the load's shape: drawn on a chain one write
	// in, so it deletes the previous write's tuple as well.
	items := make([]item, patchSample)
	for i := range items {
		ch, err := newChain(r.specs[i%numSpecs], rng.Int63())
		if err == nil {
			err = ch.advance()
		}
		if err != nil {
			return err
		}
		body, err := jsonBody(&ch.nextReq)
		if err != nil {
			return err
		}
		rs, err := coreGround(ch.cur)
		if err != nil {
			return err
		}
		coreConsistent(rs)
		items[i] = item{src: marshalSource(ch.cur), cur: ch.cur, d: ch.next, req: ch.nextReq, body: body, base: rs,
			read: &resolved{op: api.OpDeterministic, rels: []string{ch.next.Inserts[0].Rel}}}
	}
	var rtt, harness, handler, spatch, patched, apply, firstRead, dec, encode row
	var touched, reused []float64
	var handlerAllocs, harnessAllocs uint64
	var enc bytes.Buffer
	for rep := 0; rep <= patchReps; rep++ {
		for _, it := range items {
			path := ""
			if rep == 0 {
				id, err := register(&it)
				if err != nil {
					return err
				}
				path = "/specs/" + id
				handlerAllocs += allocs(func() { serveInMemory(serverHandler(srv), http.MethodPatch, path, it.body) })
				harnessAllocs += allocs(func() { serveInMemory(noopHandler, http.MethodPatch, path, it.body) })
				continue
			}
			id, err := register(&it)
			if err != nil {
				return err
			}
			var res api.PatchResult
			rtt.time(func() { res, err = clientPatch(pc.clients[0], id, it.req) })
			if err != nil {
				return fmt.Errorf("descent patch: %w", err)
			}
			if id, err = register(&it); err != nil {
				return err
			}
			path = "/specs/" + id
			var code int
			handler.time(func() { code = serveInMemory(serverHandler(srv), http.MethodPatch, path, it.body) })
			if code != http.StatusOK {
				return fmt.Errorf("descent in-memory PATCH %s: status %d", path, code)
			}
			harness.time(func() { serveInMemory(noopHandler, http.MethodPatch, path, it.body) })
			if id, err = register(&it); err != nil {
				return err
			}
			spatch.time(func() { err = serverPatch(srv, id, it.req) })
			if err != nil {
				return fmt.Errorf("descent server patch: %w", err)
			}
			var decErr, encErr, patchErr, readErr, applyErr error
			dec.time(func() { _, decErr = apiDecode[api.DeltaRequest](it.body) })
			encode.time(func() { encErr = apiEncode(&enc, &res) })
			var next *core.Reasoner
			patched.time(func() { next, patchErr = corePatched(it.base, it.d) })
			if patchErr == nil {
				tc, rc := patchComps(next)
				touched = append(touched, float64(tc))
				reused = append(reused, float64(rc))
				firstRead.time(func() { _, readErr = coreDecide(next, it.read) })
			}
			apply.time(func() { _, applyErr = specApply(it.d, it.cur) })
			if err := errors.Join(decErr, encErr, patchErr, readErr, applyErr); err != nil {
				return fmt.Errorf("descent patch layers: %w", err)
			}
		}
	}
	h := handler.p50() - harness.p50()
	vals["client.rtt_us.patch"] = rtt.p50()
	vals["client.self_us.patch"] = rtt.p50() - h
	vals["harness.request_us.patch"] = harness.p50()
	vals["server.handler_us.patch"] = h
	vals["server.handler_self_us.patch"] = h - spatch.p50()
	vals["server.handler_allocs.patch"] = float64(handlerAllocs-harnessAllocs) / float64(len(items))
	vals["api.decode_us.patch"] = dec.p50()
	vals["api.encode_us.patch"] = encode.p50()
	vals["server.patch_us"] = spatch.p50()
	vals["server.patch_self_us"] = spatch.p50() - patched.p50() - apply.p50()
	vals["core.patched_us"] = patched.p50()
	vals["spec.apply_us"] = apply.p50()
	vals["osolve.touched_comps"] = median(touched)
	vals["osolve.reused_comps"] = median(reused)
	vals["core.first_read_after_patch_us"] = firstRead.p50()
	return nil
}

// descendSetup times what set-up pays per specification: parsing,
// grounding a Reasoner, and its first consistency decision.
func (r *runner) descendSetup(vals map[string]float64) error {
	var parseRow, ground, first row
	for rep := 0; rep < setupRowReps; rep++ {
		for _, in := range r.specs {
			var err error
			parseRow.time(func() { _, err = parseSource(in.source) })
			if err != nil {
				return err
			}
			var rs *core.Reasoner
			ground.time(func() { rs, err = coreGround(in.file.Spec) })
			if err != nil {
				return err
			}
			first.time(func() { coreConsistent(rs) })
		}
	}
	vals["parse.us"] = parseRow.p50()
	vals["core.ground_us"] = ground.p50()
	vals["core.first_consistent_us"] = first.p50()
	return nil
}
