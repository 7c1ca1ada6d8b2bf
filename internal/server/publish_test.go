package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"currency/internal/api"
	"currency/internal/cluster"
	"currency/internal/parse"
)

// entitySource renders a one-relation spec with n entities of two
// tuples each under a monotonicity constraint.
func entitySource(n int) string {
	var b strings.Builder
	b.WriteString("relation R(eid, a)\ninstance R {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  t%d_0: (\"e%d\", 1)\n  t%d_1: (\"e%d\", 2)\n", i, i, i, i)
	}
	b.WriteString("}\nconstraint mono on R forall s, t:\n  s.a > t.a -> t <a s\n")
	return b.String()
}

// TestPublishAllocsIndependentOfSpecSize pins that publishing a version
// is O(1) in the size of the spec: the canonical source is rendered on
// first use, never under the registry lock.
func TestPublishAllocsIndependentOfSpecSize(t *testing.T) {
	allocs := make(map[int]float64)
	for _, n := range []int{16, 256} {
		g := NewRegistry()
		e, err := g.Put("s", entitySource(n))
		if err != nil {
			t.Fatal(err)
		}
		v := e.Version
		allocs[n] = testing.AllocsPerRun(50, func() {
			if _, err := g.Publish("s", v, v+1, e.File); err != nil {
				t.Fatal(err)
			}
			v++
		})
	}
	if allocs[16] != allocs[256] {
		t.Fatalf("publish allocs: %v at 16 entities, %v at 256; want equal", allocs[16], allocs[256])
	}
}

// TestStaleEntryDecisionMatchesOracle checks that a request holding an
// Entry captured before a patch still gets that version's answer, now
// that the cache keeps only the live version: it re-grounds the
// superseded version without evicting the live reasoner.
func TestStaleEntryDecisionMatchesOracle(t *testing.T) {
	s := New(Options{})
	src := "relation R(eid, a)\ninstance R {\n  r0: (\"e\", 1)\n  r1: (\"e\", 2)\n}\n" +
		"constraint mono on R forall s, t:\n  s.a > t.a -> t <a s\n"
	old, err := s.Register("s", src)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []api.DecisionRequest{
		{Op: api.OpConsistent},
		{Op: api.OpCertainOrder, Orders: []api.OrderPair{{Rel: "R", Attr: "a", I: "r0", J: "r1"}}},
		{Op: api.OpDeterministic, Relation: "R"},
	}
	ctx := context.Background()
	for i := range reqs {
		reqs[i].Exact = true
		s.decide(ctx, old, &reqs[i]) // warm the cache at version 1
	}
	// Revealing r1 ≺ r0 contradicts mono: version 2 is inconsistent, so
	// every verdict below differs between the two versions.
	live, _, err := s.PatchSpec("s", api.DeltaRequest{
		AddOrders: []api.OrderPair{{Rel: "R", Attr: "a", I: "r1", J: "r0"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	oracle := New(Options{CacheSize: -1})
	if _, err := oracle.Register("s", old.Source()); err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		got := s.decide(ctx, old, &req)
		want, err := oracle.Decide("s", req)
		if err != nil || got.Error != "" {
			t.Fatalf("%s: oracle err %v, stale err %q", req.Op, err, got.Error)
		}
		if got.SpecVersion != old.Version {
			t.Fatalf("%s: answered version %d, want %d", req.Op, got.SpecVersion, old.Version)
		}
		if *got.Holds != *want.Holds || got.VacuouslyTrue != want.VacuouslyTrue {
			t.Errorf("%s on the stale entry: holds=%v vacuous=%v, oracle holds=%v vacuous=%v",
				req.Op, *got.Holds, got.VacuouslyTrue, *want.Holds, want.VacuouslyTrue)
		}
		if cur := s.decide(ctx, live, &req); cur.VacuouslyTrue == want.VacuouslyTrue && *cur.Holds == *want.Holds {
			t.Errorf("%s: the patch should flip the verdict, both versions say holds=%v", req.Op, *cur.Holds)
		}
	}
	if entries, _, _, _, _, _ := s.cache.Stats(); entries != 1 {
		t.Fatalf("cache holds %d reasoners, want only the live one", entries)
	}
	if _, ok := s.cache.Peek(reasonerKey{id: "s", version: live.Version}); !ok {
		t.Fatal("a stale read evicted the live reasoner")
	}
}

// TestLazySourceConcurrentReaders races the first renderings of a fresh
// entry's canonical source: concurrent GETs and a full re-sync frame
// must all see one string, equal to the marshaled patched file.
func TestLazySourceConcurrentReaders(t *testing.T) {
	s := New(Options{})
	if _, err := s.Register("s", entitySource(8)); err != nil {
		t.Fatal(err)
	}
	fresh, _, err := s.PatchSpec("s", api.DeltaRequest{
		InsertTuples: []api.TupleInsert{{Rel: "R", Label: "t8_0", Values: []any{"e8", float64(1)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := &clusterState{s: s, self: cluster.Node{ID: "n0"}}
	h := s.Handler()

	const readers = 8
	got := make([]string, readers+1)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/specs/s", nil))
			var info api.SpecInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || rec.Code != http.StatusOK {
				t.Errorf("GET: status %d, %v", rec.Code, err)
			}
			got[i] = info.Source
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		got[readers] = cs.fullFrame(fresh).Source
	}()
	close(start)
	wg.Wait()

	want := parse.Marshal(fresh.File.Spec, fresh.File.Queries...)
	for i, src := range got {
		if src != want {
			t.Fatalf("reader %d saw a different source:\n%s\nwant:\n%s", i, src, want)
		}
	}
	if !strings.Contains(want, "t8_0") {
		t.Fatalf("patched source lacks the inserted tuple:\n%s", want)
	}
	if _, err := parse.ParseFile(want); err != nil {
		t.Fatalf("patched source does not parse back: %v", err)
	}
}
