package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"currency/internal/api"
	"currency/internal/core"
	"currency/internal/gen"
	"currency/internal/parse"
	"currency/internal/query"
	"currency/internal/spec"
)

// workload is one traffic mix. Each runs a closed-loop phase (two
// clients, each sending its next request when the last returns) and an
// open-loop phase (two senders on independent Poisson schedules that sum
// to openRate requests per second).
type workload struct {
	name string
	// ptime registers constraint-free specifications with a declared SP
	// query, so the default route answers on the Section-6 PTIME path.
	ptime bool
	// reads is the read-op mix, drawn uniformly.
	reads []api.Op
	// patchShare is the share of operations that are PATCH deltas; each
	// client writes only to its own half of the specifications.
	patchShare float64
	// nodes is the number of in-process currencyd nodes; above one they
	// form a ring with one follower per spec, and every request goes to a
	// node chosen round-robin.
	nodes int
	// openRate is the open-loop arrival rate, requests per second.
	openRate float64
}

var exactOps = []api.Op{api.OpConsistent, api.OpCertainOrder, api.OpDeterministic}

var workloads = []workload{
	{name: "exact-read", reads: exactOps, nodes: 1, openRate: 2000},
	{name: "ptime-read", ptime: true, nodes: 1, openRate: 150,
		reads: append(append([]api.Op(nil), exactOps...), api.OpCertainAnswers)},
	{name: "patch-mix", reads: exactOps, patchShare: 0.2, nodes: 1, openRate: 500},
	{name: "ring-mix", reads: exactOps, patchShare: 0.1, nodes: 3, openRate: 500},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Input sizes. Every workload serves numSpecs specifications of
// specEntities entities per relation, all resident in the reasoner cache.
// The cost of a write, and of the reads queued behind it, varies from
// one generated spec to the next; sixteen of them keep that variation
// from deciding a run's figures.
const (
	numSpecs     = 16
	specEntities = 64
	poolPerOp    = 16 // distinct read requests per (spec, op)
	queryDomain  = 3
)

// specInput is one registered specification with its read pool.
type specInput struct {
	id     string
	source string
	file   *parse.File
	// pool holds the read requests of each op, with the verdict the
	// oracle expects at version 1.
	pool map[api.Op][]readReq
}

type readReq struct {
	req  api.DecisionRequest
	body []byte // the wire body, for the in-memory handler rows
	rr   *resolved
	want verdict
}

// verdict is the part of a decision the oracle checks.
type verdict struct {
	holds   bool
	vacuous bool
	answers string // canonical rows, certain-answers only
}

// seedStream derives independent generator seeds from the run's seed.
// The hold-out stream draws from a disjoint range, so a claim tuned on
// the usual seeds can be re-checked on inputs it was not tuned on.
func seedStream(seed int64, holdout bool) *rand.Rand {
	if holdout {
		seed = -seed - 1<<40
	}
	return rand.New(rand.NewSource(seed))
}

// makeInputs generates the workload's specifications and read pools from
// the seed, and computes each pooled request's expected verdict with the
// oracle: a from-scratch exact Reasoner for consistent, certain-order and
// deterministic (on the PTIME workload this checks the PTIME route
// against the exact engine), and a direct tractable.CertainAnswersSP call
// on an independently parsed copy for SP certain answers.
func makeInputs(w workload, seed int64, holdout bool) ([]*specInput, error) {
	rng := seedStream(seed, holdout)
	var out []*specInput
	for k := 0; k < numSpecs; k++ {
		in, err := makeSpec(w, rng, fmt.Sprintf("s%d", k))
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

func makeSpec(w workload, rng *rand.Rand, id string) (*specInput, error) {
	cfg := gen.Config{
		Relations: 2, Entities: specEntities, TuplesPerEntity: 3, Attrs: 2,
		Domain: queryDomain, OrderDensity: 0.3, Constraints: 3, Copies: 1, CopyDensity: 0.5,
	}
	if w.ptime {
		cfg.Constraints = 0
	}
	// Draw generator seeds until the specification is consistent, so
	// every verdict is informative rather than vacuously true. At this
	// size about one draw in fifty is.
	var s *spec.Spec
	for tries := 0; s == nil; tries++ {
		if tries > 5000 {
			return nil, fmt.Errorf("loadbench: no consistent spec after %d draws", tries)
		}
		cfg.Seed = rng.Int63()
		cand := genSpec(cfg)
		r, err := coreGround(cand)
		if err != nil {
			return nil, err
		}
		if coreConsistent(r) {
			s = cand
		}
	}
	var qs []*query.Query
	if w.ptime {
		qs = append(qs, genSPQuery(rng, s, 0, "Q0", queryDomain), genSPQuery(rng, s, 1, "Q1", queryDomain))
	}
	src := marshalSource(s, qs...)
	// The oracle grounds what the server parses.
	f, err := parseSource(src)
	if err != nil {
		return nil, err
	}
	r, err := coreGround(f.Spec)
	if err != nil {
		return nil, err
	}
	in := &specInput{id: id, source: src, file: f, pool: make(map[api.Op][]readReq)}
	for _, op := range w.reads {
		for n := 0; n < poolPerOp; n++ {
			req := randomRead(rng, f.Spec, op)
			rr, err := resolve(f, &req)
			if err != nil {
				return nil, err
			}
			want, err := oracleVerdict(r, f.Spec, rr)
			if err != nil {
				return nil, err
			}
			body, err := jsonBody(&req)
			if err != nil {
				return nil, err
			}
			in.pool[op] = append(in.pool[op], readReq{req: req, body: body, rr: rr, want: want})
		}
	}
	return in, nil
}

// oracleVerdict is the expected answer to a resolved read on the
// specification r was grounded from.
func oracleVerdict(r *core.Reasoner, s *spec.Spec, rr *resolved) (verdict, error) {
	if rr.op == api.OpCertainAnswers {
		// Exact certain answers are exponential in entities; the SP
		// queries of the PTIME workload are checked on the PTIME
		// algorithm run directly, outside the server.
		return tractableDecide(s, rr)
	}
	return coreDecide(r, rr)
}

// randomRead draws one read request of the given op against s. Tuples
// are addressed by decimal index; certain-order pairs lie within one
// entity and come in either direction, so verdicts split true/false.
func randomRead(rng *rand.Rand, s *spec.Spec, op api.Op) api.DecisionRequest {
	req := api.DecisionRequest{Op: op}
	switch op {
	case api.OpCertainOrder:
		r := s.Relations[rng.Intn(len(s.Relations))]
		groups := r.Entities()
		g := groups[rng.Intn(len(groups))]
		x := rng.Intn(len(g.Members))
		y := (x + 1 + rng.Intn(len(g.Members)-1)) % len(g.Members)
		non := r.Schema.NonEIDIndexes()
		attr := r.Schema.Attrs[non[rng.Intn(len(non))]]
		req.Orders = []api.OrderPair{{
			Rel: r.Schema.Name, Attr: attr,
			I: strconv.Itoa(g.Members[x]), J: strconv.Itoa(g.Members[y]),
		}}
	case api.OpDeterministic:
		if n := rng.Intn(len(s.Relations) + 1); n < len(s.Relations) {
			req.Relation = s.Relations[n].Schema.Name
		}
	case api.OpCertainAnswers:
		req.Query = &api.QueryRef{Name: fmt.Sprintf("Q%d", rng.Intn(2))}
	}
	return req
}
