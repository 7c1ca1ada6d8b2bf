package osolve

import (
	"math/rand"
	"testing"

	"currency/internal/gen"
)

// TestWriteChainDifferential runs long write chains (gen.WriteChainDelta:
// insert one tuple, reveal one pair, delete the previous write's tuple)
// through ApplyDelta and checks every version against a solver built
// from scratch on the same specification: the consistency verdict, a
// random sample of certain pairs and the DeterministicCurrent verdict of
// every relation. The chains cross base-conflicted versions (about one
// in seven here); the patch after such a version must stay incremental —
// only a unit conflict may force a full rebuild.
func TestWriteChainDifferential(t *testing.T) {
	const (
		specs   = 8
		patches = 150
		samples = 6
	)
	conflicted := 0
	for k := 0; k < specs; k++ {
		cfg := gen.Config{
			Relations: 2, Entities: 10, TuplesPerEntity: 3, Attrs: 2, Domain: 3,
			OrderDensity: 0.3, Constraints: 3, Copies: 1, CopyDensity: 0.5,
		}
		var sv *Solver
		for cfg.Seed = int64(1000 + k); ; cfg.Seed += specs {
			if sv = newOrDie(t, gen.Random(cfg)); sv.Consistent() {
				break
			}
		}
		rng := rand.New(rand.NewSource(int64(k)))
		prev := ""
		for step := 0; step < patches; step++ {
			tag := fmtTag(int64(k), step)
			d, err := gen.WriteChainDelta(rng, sv.Spec, prev)
			if err != nil {
				t.Fatal(err)
			}
			prev = d.Inserts[0].Rel
			next := applyOrDie(t, sv, d)
			stats, _ := next.PatchStats()
			if sv.baseConflict && !sv.unitConflict {
				conflicted++
				if stats.FullRebuild {
					t.Fatalf("%s: the patch after a base-conflicted version rebuilt from scratch", tag)
				}
			}
			sv = next
			fresh := newOrDie(t, sv.Spec)
			if got, want := sv.Consistent(), fresh.Consistent(); got != want {
				t.Fatalf("%s: patched consistent=%v, fresh=%v", tag, got, want)
			}
			for q := 0; q < samples; q++ {
				r := sv.Spec.Relations[rng.Intn(len(sv.Spec.Relations))]
				i, j := rng.Intn(r.Len()), rng.Intn(r.Len())
				if i == j || r.EID(i) != r.EID(j) {
					continue
				}
				attr := r.Schema.Attrs[r.Schema.NonEIDIndexes()[rng.Intn(len(r.Schema.NonEIDIndexes()))]]
				got, err := sv.CertainPair(r.Schema.Name, attr, i, j)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				want, err := fresh.CertainPair(r.Schema.Name, attr, i, j)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if got != want {
					t.Fatalf("%s: certain(%s.%s %d≺%d) patched=%v fresh=%v", tag, r.Schema.Name, attr, i, j, got, want)
				}
			}
			for _, r := range sv.Spec.Relations {
				if got, want := sv.DeterministicCurrent(r.Schema.Name), fresh.DeterministicCurrent(r.Schema.Name); got != want {
					t.Fatalf("%s: deterministic(%s) patched=%v fresh=%v", tag, r.Schema.Name, got, want)
				}
			}
		}
	}
	if conflicted == 0 {
		t.Fatal("no chain passed through a base-conflicted version; the incremental-after-conflict path went unchecked")
	}
	t.Logf("%d patches followed a base-conflicted version", conflicted)
}
