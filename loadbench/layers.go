package main

// Every call the benchmark makes into a layer of the repository goes
// through this file, one function per entry point. The load phases, the
// oracle and the traced descent all use these wrappers, so when a layer's
// API changes only the call sites here move and no metric is redefined.
// Each wrapper calls the layer's plain entry point (Decide, PatchSpec,
// Consistent, CertainPair, DeterministicCurrent, Patched, ...), never a
// Budget/Stats/Ctx variant.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"

	"currency/internal/api"
	"currency/internal/client"
	"currency/internal/cluster"
	"currency/internal/core"
	"currency/internal/gen"
	"currency/internal/osolve"
	"currency/internal/parse"
	"currency/internal/query"
	"currency/internal/relation"
	"currency/internal/server"
	"currency/internal/spec"
	"currency/internal/tractable"
)

// ---------------------------------------------------------------------
// harness: input generation (internal/gen).

func genSpec(cfg gen.Config) *spec.Spec { return gen.Random(cfg) }

func genSPQuery(rng *rand.Rand, s *spec.Spec, rel int, name string, domain int) *query.Query {
	return gen.RandomSPQuery(rng, s.Relations[rel].Schema, name, domain)
}

// genDelta draws one inserted tuple plus one order reveal against s.
func genDelta(rng *rand.Rand, s *spec.Spec) *spec.Delta {
	return gen.RandomDelta(rng, s, gen.DeltaConfig{Inserts: 1, NewEntity: 0.2, Orders: 1})
}

func genWire(s *spec.Spec, d *spec.Delta) api.DeltaRequest { return gen.WireDelta(s, d) }

// ---------------------------------------------------------------------
// parse.

func parseSource(src string) (*parse.File, error) { return parse.ParseFile(src) }

func marshalSource(s *spec.Spec, qs ...*query.Query) string { return parse.Marshal(s, qs...) }

// ---------------------------------------------------------------------
// spec: the delta apply.

func specApply(d *spec.Delta, s *spec.Spec) (*spec.Spec, error) {
	ns, _, err := d.Apply(s)
	return ns, err
}

func relationLen(s *spec.Spec, rel string) int {
	r, _ := s.Relation(rel)
	return r.Len()
}

// ---------------------------------------------------------------------
// cluster: ring placement.

func newRing(nodes []cluster.Node, replicas int) (*cluster.Ring, error) {
	return cluster.New(nodes, replicas)
}

// ringPlacement names spec id's owner, its first follower and a node
// holding no copy of it ("" when every node holds one).
func ringPlacement(r *cluster.Ring, id string) (owner, follower, nonHolder string) {
	owner, follower = r.Owner(id).ID, r.Followers(id)[0].ID
	for _, n := range r.Nodes() {
		if !r.IsHolder(id, n.ID) {
			return owner, follower, n.ID
		}
	}
	return owner, follower, ""
}

// ---------------------------------------------------------------------
// server.

func newServer(opts server.Options) *server.Server { return server.New(opts) }

func serverHandler(s *server.Server) http.Handler { return s.Handler() }

func serverClose(s *server.Server) { s.Close() }

func serverDecide(s *server.Server, id string, req api.DecisionRequest) (api.DecisionResult, error) {
	return s.Decide(id, req)
}

func serverPatch(s *server.Server, id string, req api.DeltaRequest) error {
	_, _, err := s.PatchSpec(id, req)
	return err
}

func serverRegister(s *server.Server, id, src string) error {
	_, err := s.Register(id, src)
	return err
}

// serveInMemory runs one request through a handler on an in-memory
// request and recorder, returning the status. With a no-op handler this
// is the harness-only row the handler rows subtract.
func serveInMemory(h http.Handler, method, path string, body []byte) int {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// noopHandler drains the body and answers a fixed small JSON object: the
// cost of the in-memory request machinery with no server behind it.
var noopHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(`{"op":"consistent","engine":"exact","specVersion":1,"holds":true}` + "\n"))
})

// ---------------------------------------------------------------------
// client (internal/client over loopback HTTP).

func newClient(base string, hc *http.Client) *client.Client { return client.New(base, hc) }

func clientRegister(c *client.Client, id, src string) error {
	_, err := c.RegisterSpec(id, src)
	return err
}

func clientDecide(c *client.Client, id string, req *api.DecisionRequest) (api.DecisionResult, error) {
	switch req.Op {
	case api.OpConsistent:
		return c.Consistent(id)
	case api.OpCertainOrder:
		return c.CertainOrder(id, req.Orders)
	case api.OpDeterministic:
		return c.Deterministic(id, req.Relation)
	case api.OpCertainAnswers:
		return c.CertainAnswers(id, *req.Query)
	}
	return api.DecisionResult{}, fmt.Errorf("loadbench: op %q is not in any mix", req.Op)
}

func clientPatch(c *client.Client, id string, req api.DeltaRequest) (api.PatchResult, error) {
	return c.PatchSpec(id, req)
}

func clientStats(c *client.Client) (api.Stats, error) { return c.Stats() }

func clientMetrics(c *client.Client) (string, error) { return c.Metrics() }

func clientClusterStatus(c *client.Client) (api.ClusterStatus, error) { return c.ClusterStatus() }

// ---------------------------------------------------------------------
// api: wire JSON, the way the server reads and writes it.

func apiDecode[T any](body []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	return v, err
}

func apiEncode(buf *bytes.Buffer, v any) error {
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// jsonBody is a request body as internal/client puts it on the wire.
func jsonBody(v any) ([]byte, error) { return json.Marshal(v) }

// ---------------------------------------------------------------------
// core (Reasoner) and osolve (the exact engine).

func coreGround(s *spec.Spec) (*core.Reasoner, error) { return core.NewReasoner(s) }

func coreConsistent(r *core.Reasoner) bool { return r.Consistent() }

func corePatched(r *core.Reasoner, d *spec.Delta) (*core.Reasoner, error) { return r.Patched(d) }

func patchComps(r *core.Reasoner) (touched, reused int) {
	st, ok := r.Engine().PatchStats()
	if !ok {
		return 0, 0
	}
	return st.RebuiltComps, st.ReusedComps
}

// coreDecide answers a resolved read on a reasoner the way the server's
// exact route does, including the vacuity probe after a true
// certain-order or deterministic verdict.
func coreDecide(r *core.Reasoner, rr *resolved) (verdict, error) {
	switch rr.op {
	case api.OpConsistent:
		return verdict{holds: r.Consistent()}, nil
	case api.OpCertainOrder:
		reqs := make([]core.OrderRequirement, len(rr.pairs))
		for i, p := range rr.pairs {
			reqs[i] = core.OrderRequirement{Rel: p.rel, Attr: p.attr, I: p.i, J: p.j}
		}
		ok, err := r.CertainOrder(reqs)
		if err != nil {
			return verdict{}, err
		}
		return verdict{holds: ok, vacuous: ok && !r.Consistent()}, nil
	case api.OpDeterministic:
		ok := true
		for _, rel := range rr.rels {
			det, err := r.Deterministic(rel)
			if err != nil {
				return verdict{}, err
			}
			if !det {
				ok = false
				break
			}
		}
		return verdict{holds: ok, vacuous: ok && !r.Consistent()}, nil
	case api.OpCertainAnswers:
		res, empty, err := r.CertainAnswers(rr.query)
		if err != nil {
			return verdict{}, err
		}
		if empty {
			return verdict{vacuous: true}, nil
		}
		return verdict{answers: canonResult(res)}, nil
	}
	return verdict{}, fmt.Errorf("loadbench: no core route for %q", rr.op)
}

// osolveDecide runs the engine calls a read costs below the Reasoner:
// Consistent, CertainPair per pair, DeterministicCurrent per relation.
func osolveDecide(sv *osolve.Solver, rr *resolved) (bool, error) {
	switch rr.op {
	case api.OpConsistent:
		return sv.Consistent(), nil
	case api.OpCertainOrder:
		for _, p := range rr.pairs {
			ok, err := sv.CertainPair(p.rel, p.attr, p.i, p.j)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case api.OpDeterministic:
		for _, rel := range rr.rels {
			if !sv.DeterministicCurrent(rel) {
				return false, nil
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("loadbench: no engine route for %q", rr.op)
}

func engineOf(r *core.Reasoner) *osolve.Solver { return r.Engine() }

// ---------------------------------------------------------------------
// tractable: the Section-6 PTIME route, called the way the server's
// default route calls it on constraint-free specifications.

func tractableDecide(s *spec.Spec, rr *resolved) (verdict, error) {
	vac := func(ok bool) bool {
		if !ok {
			return false
		}
		c, err := tractable.Consistent(s)
		return err == nil && !c
	}
	switch rr.op {
	case api.OpConsistent:
		ok, err := tractable.Consistent(s)
		return verdict{holds: ok}, err
	case api.OpCertainOrder:
		reqs := make([]tractable.OrderRequirement, len(rr.pairs))
		for i, p := range rr.pairs {
			reqs[i] = tractable.OrderRequirement{Rel: p.rel, Attr: p.attr, I: p.i, J: p.j}
		}
		ok, err := tractable.CertainOrder(s, reqs)
		if err != nil {
			return verdict{}, err
		}
		return verdict{holds: ok, vacuous: vac(ok)}, nil
	case api.OpDeterministic:
		ok := true
		for _, rel := range rr.rels {
			det, err := tractable.Deterministic(s, rel)
			if err != nil {
				return verdict{}, err
			}
			if !det {
				ok = false
				break
			}
		}
		return verdict{holds: ok, vacuous: vac(ok)}, nil
	case api.OpCertainAnswers:
		res, consistent, err := tractable.CertainAnswersSP(s, rr.query)
		if err != nil {
			return verdict{}, err
		}
		if !consistent {
			return verdict{vacuous: true}, nil
		}
		return verdict{answers: canonResult(res)}, nil
	}
	return verdict{}, fmt.Errorf("loadbench: no PTIME route for %q", rr.op)
}

// ---------------------------------------------------------------------
// Resolution of wire requests against a parsed file, and the canonical
// form of answer sets on both sides of the wire.

type orderReq struct {
	rel, attr string
	i, j      int
}

// resolved is a read request with its wire references resolved against
// the specification: tuple indices, target relations, the named query.
type resolved struct {
	op    api.Op
	pairs []orderReq
	rels  []string
	query *query.Query
}

func resolve(f *parse.File, req *api.DecisionRequest) (*resolved, error) {
	rr := &resolved{op: req.Op}
	for _, p := range req.Orders {
		i, err1 := strconv.Atoi(p.I)
		j, err2 := strconv.Atoi(p.J)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("loadbench: order pair %v is not index-addressed", p)
		}
		rr.pairs = append(rr.pairs, orderReq{rel: p.Rel, attr: p.Attr, i: i, j: j})
	}
	if req.Op == api.OpDeterministic {
		if req.Relation != "" {
			rr.rels = []string{req.Relation}
		} else {
			for _, r := range f.Spec.Relations {
				rr.rels = append(rr.rels, r.Schema.Name)
			}
		}
	}
	if req.Query != nil {
		q, ok := f.Query(req.Query.Name)
		if !ok {
			return nil, fmt.Errorf("loadbench: no query %q", req.Query.Name)
		}
		rr.query = q
	}
	return rr, nil
}

// canonResult renders a query result as the sorted JSON rows the server
// would send for it.
func canonResult(res *query.Result) string {
	rows := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		wire := make([]any, len(row))
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
		b, _ := json.Marshal(wire)
		rows = append(rows, string(b))
	}
	return canonRows(rows)
}

// canonWire renders a wire answer set the same way canonResult does.
func canonWire(rs *api.ResultSet) string {
	rows := make([]string, 0, len(rs.Rows))
	for _, row := range rs.Rows {
		b, _ := json.Marshal(row)
		rows = append(rows, string(b))
	}
	return canonRows(rows)
}

func canonRows(rows []string) string {
	sort.Strings(rows)
	var b bytes.Buffer
	b.WriteByte('[')
	for i, r := range rows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(r)
	}
	b.WriteByte(']')
	return b.String()
}
