package server_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"currency/internal/api"
	"currency/internal/gen"
	"currency/internal/parse"
	"currency/internal/server"
	"currency/internal/spec"
)

// ptimeDiffSpec generates a small constraint-free specification with one
// SP query per relation, Q0 and Q1: small enough that the exact engine's
// certain answers stay cheap.
func ptimeDiffSpec(seed int64) (*spec.Spec, string) {
	cfg := gen.Default(seed)
	cfg.Constraints = 0
	cfg.Entities = 2 + int(seed%3)
	cfg.TuplesPerEntity = 2 + int(seed%2)
	cfg.OrderDensity = 0.3
	s := gen.Random(cfg)
	rng := rand.New(rand.NewSource(seed))
	q0 := gen.RandomSPQuery(rng, s.Relations[0].Schema, "Q0", cfg.Domain)
	q1 := gen.RandomSPQuery(rng, s.Relations[1].Schema, "Q1", cfg.Domain)
	return s, parse.Marshal(s, q0, q1)
}

// ptimeDiffRequests lists every PTIME-eligible read of s: consistency,
// every ordered pair within every entity and attribute, determinism of
// each relation and of all of them, and certain answers of Q0 and Q1.
func ptimeDiffRequests(s *spec.Spec) []api.DecisionRequest {
	reqs := []api.DecisionRequest{{Op: api.OpConsistent}, {Op: api.OpDeterministic}}
	for _, r := range s.Relations {
		reqs = append(reqs, api.DecisionRequest{Op: api.OpDeterministic, Relation: r.Schema.Name})
		for _, ai := range r.Schema.NonEIDIndexes() {
			for _, g := range r.Entities() {
				for _, i := range g.Members {
					for _, j := range g.Members {
						if i == j {
							continue
						}
						reqs = append(reqs, api.DecisionRequest{Op: api.OpCertainOrder, Orders: []api.OrderPair{{
							Rel: r.Schema.Name, Attr: r.Schema.Attrs[ai], I: strconv.Itoa(i), J: strconv.Itoa(j),
						}}})
					}
				}
			}
		}
	}
	for _, q := range []string{"Q0", "Q1"} {
		reqs = append(reqs, api.DecisionRequest{Op: api.OpCertainAnswers, Query: &api.QueryRef{Name: q}})
	}
	return reqs
}

// verdictOf renders the route-independent part of a decision: holds, the
// vacuity flag and the canonical answer rows.
func verdictOf(res api.DecisionResult) string {
	// Booleans, strings, numbers and maps of them always marshal.
	b, _ := json.Marshal(struct {
		Holds   *bool
		Vacuous bool
		Answers *api.ResultSet
	}{res.Holds, res.VacuouslyTrue, res.Answers})
	return string(b)
}

// decideBothRoutes answers req on the default route, which must be the
// PTIME one, and on the exact engine, and fails unless they agree. It
// returns the default route's result.
func decideBothRoutes(t *testing.T, srv *server.Server, id string, req api.DecisionRequest) api.DecisionResult {
	t.Helper()
	fast, err := srv.Decide(id, req)
	if err != nil {
		t.Fatalf("%s %+v: %v", id, req, err)
	}
	exactReq := req
	exactReq.Exact = true
	exact, err := srv.Decide(id, exactReq)
	if err != nil {
		t.Fatalf("%s %+v exact: %v", id, req, err)
	}
	if fast.Engine != api.EnginePTime || exact.Engine != api.EngineExact {
		t.Fatalf("%s %+v: engines %q/%q, want ptime/exact", id, req, fast.Engine, exact.Engine)
	}
	if fast.Error != "" || exact.Error != "" {
		t.Fatalf("%s %+v: errors %q/%q", id, req, fast.Error, exact.Error)
	}
	if fast.SpecVersion != exact.SpecVersion {
		t.Fatalf("%s %+v: versions %d/%d", id, req, fast.SpecVersion, exact.SpecVersion)
	}
	if f, x := verdictOf(fast), verdictOf(exact); f != x {
		t.Errorf("%s v%d %+v: ptime %s, exact %s", id, fast.SpecVersion, req, f, x)
	}
	return fast
}

// TestPTimeRouteMatchesExact checks that every constraint-free read gets
// the same verdict on the default (PTIME) route as on the exact engine,
// and that it keeps doing so across PATCHes: the PTIME view is per spec
// version, so a revealed order that flips a certain-order verdict and an
// inserted tuple are both seen at once.
func TestPTimeRouteMatchesExact(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	flipped := 0
	for seed := int64(0); seed < 24; seed++ {
		s, src := ptimeDiffSpec(seed)
		id := fmt.Sprintf("g%d", seed)
		if _, err := srv.Register(id, src); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		reqs := ptimeDiffRequests(s)
		holds := make(map[string]bool)
		for _, req := range reqs {
			res := decideBothRoutes(t, srv, id, req)
			if req.Op == api.OpCertainOrder && res.Holds != nil {
				p := req.Orders[0]
				holds[p.Rel+"."+p.Attr+":"+p.I+"<"+p.J] = *res.Holds
			}
		}

		// Reveal an order no completion rules out: neither direction is
		// certain, so the patched spec stays consistent and the pair's
		// verdict flips from false to true.
		var reveal *api.OrderPair
		for _, req := range reqs {
			p := req.Orders
			if req.Op != api.OpCertainOrder || holds[p[0].Rel+"."+p[0].Attr+":"+p[0].I+"<"+p[0].J] ||
				holds[p[0].Rel+"."+p[0].Attr+":"+p[0].J+"<"+p[0].I] {
				continue
			}
			reveal = &p[0]
			break
		}
		if reveal != nil {
			e, _, err := srv.PatchSpec(id, api.DeltaRequest{BaseVersion: 1, AddOrders: []api.OrderPair{*reveal}})
			if err != nil {
				t.Fatalf("seed %d: reveal %+v: %v", seed, *reveal, err)
			}
			res := decideBothRoutes(t, srv, id, api.DecisionRequest{Op: api.OpCertainOrder, Orders: []api.OrderPair{*reveal}})
			if res.Holds == nil || !*res.Holds || res.VacuouslyTrue || res.SpecVersion != e.Version {
				t.Fatalf("seed %d: revealed %+v, then certain-order = %+v", seed, *reveal, res)
			}
			flipped++
			for _, req := range ptimeDiffRequests(e.File.Spec) {
				decideBothRoutes(t, srv, id, req)
			}
		}

		// Insert a tuple with a value no other tuple carries.
		cur, _, err := srv.PatchSpec(id, api.DeltaRequest{InsertTuples: []api.TupleInsert{{
			Rel: "R0", Values: []any{"e0", int64(9), int64(9)},
		}}})
		if err != nil {
			t.Fatalf("seed %d: insert: %v", seed, err)
		}
		for _, req := range ptimeDiffRequests(cur.File.Spec) {
			if res := decideBothRoutes(t, srv, id, req); res.SpecVersion != cur.Version {
				t.Fatalf("seed %d: answered version %d after the insert, want %d", seed, res.SpecVersion, cur.Version)
			}
		}
	}
	if flipped == 0 {
		t.Error("no seed revealed a flippable order; the PATCH leg checked nothing")
	}
}

// inconsistentSource is constraint-free but has no model: R orders r0
// before r1, while the copy from F forces r1 before r0.
const inconsistentSource = `
relation R(eid, a)
relation F(eid, a)

instance R {
  r0: ("e", 1)
  r1: ("e", 2)
  order a: r0 < r1
}

instance F {
  f0: ("e", 1)
  f1: ("e", 2)
  order a: f1 < f0
}

copy rho to R(a) from F(a) { r0 <- f0, r1 <- f1 }

query Q0(x) := exists e. (R(e, x))
query Q1(x) := exists e. (F(e, x))
`

// TestPTimeRouteInconsistentIsVacuous checks that an inconsistent
// constraint-free spec is reported inconsistent, and every other verdict
// vacuous, on both routes alike.
func TestPTimeRouteInconsistentIsVacuous(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	e, err := srv.Register("bad", inconsistentSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range ptimeDiffRequests(e.File.Spec) {
		res := decideBothRoutes(t, srv, "bad", req)
		if req.Op == api.OpConsistent {
			if res.Holds == nil || *res.Holds {
				t.Errorf("consistent = %+v, want false", res)
			}
		} else if !res.VacuouslyTrue {
			t.Errorf("%+v = %+v, want vacuously true", req, res)
		}
	}
}

// TestPTimeViewColdConcurrent has eight goroutines hit an entry whose
// PTIME view is not built yet, all at once; run under -race it checks
// that the view is built safely and every reader sees the exact verdicts.
func TestPTimeViewColdConcurrent(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	s, src := ptimeDiffSpec(5)
	if _, err := srv.Register("cold", src); err != nil {
		t.Fatal(err)
	}
	reqs := ptimeDiffRequests(s)
	want := make([]string, len(reqs))
	for i, req := range reqs {
		req.Exact = true
		res, err := srv.Decide("cold", req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = verdictOf(res)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := range reqs {
				i := (k + g*len(reqs)/8) % len(reqs)
				res, err := srv.Decide("cold", reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := verdictOf(res); res.Engine != api.EnginePTime || got != want[i] {
					t.Errorf("goroutine %d, %+v: %s %s, want ptime %s", g, reqs[i], res.Engine, got, want[i])
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
