package server_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"currency/internal/api"
	"currency/internal/core"
	"currency/internal/gen"
	"currency/internal/parse"
	"currency/internal/server"
)

// liveSource is a small spec with labeled tuples, one constraint and one
// copy function, convenient for addressing in deltas.
func liveSource() string {
	return `
relation R(eid, a)
relation F(eid, a)

instance R {
  r0: ("e", 1)
  r1: ("e", 2)
}

instance F {
  f0: ("e", 2)
  f1: ("e", 3)
  order a: f0 < f1
}

constraint mono on R forall s, t:
  s.a > t.a -> t <a s

copy rho to R(a) from F(a) { r1 <- f0 }
`
}

// TestPatchSpecEndToEnd drives the full PATCH pipeline: version bump,
// canonical source round-trip, decisions reflecting the new data, and
// the patched (not regrounded) cache counter.
func TestPatchSpecEndToEnd(t *testing.T) {
	c, _ := newTestServer(t, server.Options{})
	if _, err := c.RegisterSpec("live", liveSource()); err != nil {
		t.Fatal(err)
	}

	// Warm the cache: the exact engine grounds version 1.
	res, err := c.Consistent("live")
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds == nil || !*res.Holds {
		t.Fatalf("v1 consistent: %+v", res)
	}
	// The mono constraint forces r0 (a=1) ≺ r1 (a=2).
	res, err = c.CertainOrder("live", []api.OrderPair{{Rel: "R", Attr: "a", I: "r0", J: "r1"}})
	if err != nil || res.Holds == nil || !*res.Holds {
		t.Fatalf("v1 certain-order: %+v err=%v", res, err)
	}

	// Patch: a new tuple r2 with the highest a arrives, ordered after r1.
	patch, err := c.PatchSpec("live", api.DeltaRequest{
		BaseVersion:  1,
		InsertTuples: []api.TupleInsert{{Rel: "R", Label: "r2", Values: []any{"e", 5}}},
		AddOrders:    []api.OrderPair{{Rel: "R", Attr: "a", I: "r1", J: "r2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if patch.Version != 2 {
		t.Fatalf("patched version = %d, want 2", patch.Version)
	}
	if !patch.Patch.Patched {
		t.Fatalf("expected an incremental cache patch, got %+v", patch.Patch)
	}
	if patch.Patch.ReusedComps == 0 {
		// The F component is untouched by an R-only delta.
		t.Fatalf("expected reused components in %+v", patch.Patch)
	}

	// The canonical source of the patched version parses back and holds
	// the new tuple.
	got, err := c.GetSpec("live")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 || !strings.Contains(got.Source, "r2") {
		t.Fatalf("patched source: version %d, contains r2: %v", got.Version, strings.Contains(got.Source, "r2"))
	}
	f, err := parse.ParseFile(got.Source)
	if err != nil {
		t.Fatalf("patched canonical source does not parse back: %v", err)
	}
	if again := parse.Marshal(f.Spec, f.Queries...); again != got.Source {
		t.Fatalf("patched source is not canonical: re-marshaled\n%s\nserved\n%s", again, got.Source)
	}

	// Decisions run against the patched engine: r1 ≺ r2 is now certain,
	// and the verdict reports version 2.
	res, err = c.CertainOrder("live", []api.OrderPair{{Rel: "R", Attr: "a", I: "r1", J: "r2"}})
	if err != nil || res.Holds == nil || !*res.Holds {
		t.Fatalf("v2 certain-order r1<r2: %+v err=%v", res, err)
	}
	if res.SpecVersion != 2 {
		t.Fatalf("decision ran against version %d, want 2", res.SpecVersion)
	}

	// Stats: the update was absorbed by patching, not regrounding.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CachePatched != 1 || st.CacheRegrounded != 0 {
		t.Fatalf("stats patched=%d regrounded=%d, want 1/0", st.CachePatched, st.CacheRegrounded)
	}
}

// TestPatchSpecRegroundPath covers the cold side: patching a spec whose
// reasoner was never grounded falls back to grounding the new version,
// and the regrounded counter says so.
func TestPatchSpecRegroundPath(t *testing.T) {
	c, _ := newTestServer(t, server.Options{})
	if _, err := c.RegisterSpec("cold", liveSource()); err != nil {
		t.Fatal(err)
	}
	// No decision ran: the cache holds no grounded v1 reasoner.
	patch, err := c.PatchSpec("cold", api.DeltaRequest{
		InsertTuples: []api.TupleInsert{{Rel: "F", Label: "f2", Values: []any{"e", 7}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if patch.Patch.Patched {
		t.Fatalf("expected a cold reground, got patch info %+v", patch.Patch)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CachePatched != 0 || st.CacheRegrounded != 1 {
		t.Fatalf("stats patched=%d regrounded=%d, want 0/1", st.CachePatched, st.CacheRegrounded)
	}
	// The patched spec still answers.
	res, err := c.Consistent("cold")
	if err != nil || res.Holds == nil || !*res.Holds {
		t.Fatalf("post-patch consistent: %+v err=%v", res, err)
	}
}

// TestPatchSpecEngineFallbackIsReground pins the labelling of a patch
// whose cached predecessor could not be patched incrementally: an added
// unconditional denial (empty body, false head) makes the engine rebuild
// from scratch, and the pipeline must say reground everywhere — PatchInfo,
// the cache counter and the trace span — not remap.
func TestPatchSpecEngineFallbackIsReground(t *testing.T) {
	c, _ := newTestServer(t, server.Options{SlowQuery: time.Nanosecond, RequestLog: io.Discard})
	if _, err := c.RegisterSpec("deny", liveSource()); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Consistent("deny"); err != nil || res.Holds == nil || !*res.Holds {
		t.Fatalf("v1 consistent: %+v err=%v", res, err)
	}
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	patch, err := c.PatchSpec("deny", api.DeltaRequest{
		AddConstraints: []string{"constraint never on R forall s: true -> false"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if patch.Patch.Patched {
		t.Fatalf("a full-rebuild fallback reported as an incremental patch: %+v", patch.Patch)
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := after.CacheRegrounded - before.CacheRegrounded; got != 1 {
		t.Errorf("cacheRegrounded rose by %d, want 1", got)
	}
	if after.CachePatched != before.CachePatched {
		t.Errorf("cachePatched rose %d -> %d on a fallback", before.CachePatched, after.CachePatched)
	}
	traces, err := c.SlowTraces()
	if err != nil {
		t.Fatal(err)
	}
	spans := make(map[string]bool)
	for _, tr := range traces.Traces {
		for _, sp := range tr.Spans {
			spans[sp.Name] = true
		}
	}
	if !spans["patch.reground"] || !spans["patch.delta_apply"] || spans["patch.remap"] {
		t.Errorf("want patch.delta_apply and patch.reground spans and no patch.remap, got %v", spans)
	}
	if res, err := c.Consistent("deny"); err != nil || res.Holds == nil || *res.Holds {
		t.Fatalf("an unconditional denial must make v2 inconsistent: %+v err=%v", res, err)
	}
}

// TestPatchSpecVersionConflict checks the optimistic concurrency guard.
func TestPatchSpecVersionConflict(t *testing.T) {
	c, _ := newTestServer(t, server.Options{})
	if _, err := c.RegisterSpec("vc", liveSource()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PatchSpec("vc", api.DeltaRequest{
		InsertTuples: []api.TupleInsert{{Rel: "R", Values: []any{"e", 3}}},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := c.PatchSpec("vc", api.DeltaRequest{
		BaseVersion:  1, // stale: the spec is at version 2 now
		InsertTuples: []api.TupleInsert{{Rel: "R", Values: []any{"e", 4}}},
	})
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("stale patch: got err=%v, want version conflict", err)
	}
}

// TestPatchSpecDeltaShapes exercises constraint and copy changes plus
// deletes through the wire format, ending in a consistent, queryable
// spec.
func TestPatchSpecDeltaShapes(t *testing.T) {
	c, _ := newTestServer(t, server.Options{})
	if _, err := c.RegisterSpec("shapes", liveSource()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Consistent("shapes"); err != nil {
		t.Fatal(err)
	}
	patch, err := c.PatchSpec("shapes", api.DeltaRequest{
		DeleteTuples:    []api.TupleRef{{Rel: "F", Ref: "f1"}},
		DropConstraints: []string{"mono"},
		AddConstraints:  []string{"constraint mono2 on R forall s, t:\n  s.a > t.a -> t <a s"},
		DropCopies:      []string{"rho"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if patch.Version != 2 {
		t.Fatalf("version %d, want 2", patch.Version)
	}
	got, err := c.GetSpec("shapes")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got.Source, "f1") || strings.Contains(got.Source, "copy rho") ||
		!strings.Contains(got.Source, "mono2") {
		t.Fatalf("patched source did not absorb the delta:\n%s", got.Source)
	}
	res, err := c.CertainOrder("shapes", []api.OrderPair{{Rel: "R", Attr: "a", I: "r0", J: "r1"}})
	if err != nil || res.Holds == nil || !*res.Holds {
		t.Fatalf("mono2 certain-order: %+v err=%v", res, err)
	}

	// Bad deltas surface as errors without changing state.
	if _, err := c.PatchSpec("shapes", api.DeltaRequest{
		DeleteTuples: []api.TupleRef{{Rel: "R", Ref: "nope"}},
	}); err == nil {
		t.Fatal("deleting an unknown tuple must fail")
	}
	got2, err := c.GetSpec("shapes")
	if err != nil || got2.Version != 2 {
		t.Fatalf("failed patch must not bump the version: v=%d err=%v", got2.Version, err)
	}
}

// TestPatchSpecLabelReuse covers replacing a tuple in one delta: delete
// "f1" and insert a new tuple under the same label, then order against
// it — the freed label must resolve to the insert.
func TestPatchSpecLabelReuse(t *testing.T) {
	c, _ := newTestServer(t, server.Options{})
	if _, err := c.RegisterSpec("reuse", liveSource()); err != nil {
		t.Fatal(err)
	}
	res, err := c.PatchSpec("reuse", api.DeltaRequest{
		DeleteTuples: []api.TupleRef{{Rel: "F", Ref: "f1"}},
		InsertTuples: []api.TupleInsert{{Rel: "F", Label: "f1", Values: []any{"e", 9}}},
		AddOrders:    []api.OrderPair{{Rel: "F", Attr: "a", I: "f0", J: "f1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 {
		t.Fatalf("version %d, want 2", res.Version)
	}
	got, err := c.CertainOrder("reuse", []api.OrderPair{{Rel: "F", Attr: "a", I: "f0", J: "f1"}})
	if err != nil || got.Holds == nil || !*got.Holds {
		t.Fatalf("order against the re-inserted label: %+v err=%v", got, err)
	}
}

// TestPatchSpecGeneratedStream replays a currencygen-style update stream
// over HTTP: random deltas are rendered to the wire format, PATCHed in
// order, and after every step the server's verdict must match a reasoner
// grounded from the locally applied specification.
func TestPatchSpecGeneratedStream(t *testing.T) {
	c, _ := newTestServer(t, server.Options{})
	rng := rand.New(rand.NewSource(11))
	cur := gen.Random(gen.Config{
		Seed: 5, Relations: 2, Entities: 3, TuplesPerEntity: 2,
		Attrs: 2, Domain: 3, OrderDensity: 0.3, Constraints: 2, Copies: 1, CopyDensity: 0.5,
	})
	if _, err := c.RegisterSpec("stream", parse.Marshal(cur)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Consistent("stream"); err != nil {
		t.Fatal(err)
	}
	dcfg := gen.DefaultDeltaConfig()
	dcfg.Deletes = 1
	for step := 0; step < 5; step++ {
		d := gen.RandomDelta(rng, cur, dcfg)
		res, err := c.PatchSpec("stream", gen.WireDelta(cur, d))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if res.Version != step+2 {
			t.Fatalf("step %d: version %d, want %d", step, res.Version, step+2)
		}
		next, _, err := d.Apply(cur)
		if err != nil {
			t.Fatalf("step %d: local apply: %v", step, err)
		}
		cur = next

		want, err := core.NewReasoner(cur)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got, err := c.Consistent("stream")
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got.Holds == nil || *got.Holds != want.Consistent() {
			t.Fatalf("step %d: server consistent=%v, local=%v", step, got.Holds, want.Consistent())
		}
	}
}

// TestRegistryPatchEntryConflict covers the registry-level guard
// directly (the HTTP layer short-circuits most races before it).
func TestRegistryPatchEntryConflict(t *testing.T) {
	_, srv := newTestServer(t, server.Options{})
	if _, err := srv.Register("r", liveSource()); err != nil {
		t.Fatal(err)
	}
	_, _, err := srv.PatchSpec("r", api.DeltaRequest{
		BaseVersion:  7,
		InsertTuples: []api.TupleInsert{{Rel: "R", Values: []any{"e", 3}}},
	})
	if !errors.Is(err, server.ErrVersionConflict) {
		t.Fatalf("got %v, want ErrVersionConflict", err)
	}
}

// TestCacheKeepsOnlyLiveVersions pins that patches replace a spec's
// cached reasoner instead of piling superseded versions into the LRU.
func TestCacheKeepsOnlyLiveVersions(t *testing.T) {
	c, _ := newTestServer(t, server.Options{})
	const specs, patches = 3, 4
	for i := 0; i < specs; i++ {
		id := fmt.Sprintf("live%d", i)
		if _, err := c.RegisterSpec(id, liveSource()); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < patches; k++ {
			if _, err := c.Consistent(id); err != nil {
				t.Fatal(err)
			}
			if _, err := c.PatchSpec(id, api.DeltaRequest{
				InsertTuples: []api.TupleInsert{{Rel: "R", Label: fmt.Sprintf("n%d", k), Values: []any{"e", 3 + k}}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Consistent(id); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheEntries != specs {
		t.Fatalf("cache holds %d reasoners after %d patches to each of %d specs, want %d",
			st.CacheEntries, patches, specs, specs)
	}
	if st.CachePatched != specs*patches || st.CacheRegrounded != 0 {
		t.Fatalf("stats patched=%d regrounded=%d, want %d/0", st.CachePatched, st.CacheRegrounded, specs*patches)
	}
}
