package gen

import (
	"math/rand"
	"reflect"
	"testing"

	"currency/internal/query"
)

// TestRandomIsValid checks that every generated specification validates,
// across many seeds and shapes.
func TestRandomIsValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		cfg := Default(seed)
		cfg.Relations = 1 + int(seed%3)
		cfg.Copies = int(seed % 3)
		cfg.Constraints = int(seed % 4)
		cfg.TuplesPerEntity = 1 + int(seed%3)
		s := Random(cfg)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRandomDeterministic checks seed-stability.
func TestRandomDeterministic(t *testing.T) {
	a := Random(Default(7))
	b := Random(Default(7))
	for i := range a.Relations {
		if !a.Relations[i].Instance.Equal(b.Relations[i].Instance) {
			t.Fatalf("relation %d differs across identical seeds", i)
		}
	}
	if len(a.Constraints) != len(b.Constraints) || len(a.Copies) != len(b.Copies) {
		t.Fatal("constraint/copy counts differ across identical seeds")
	}
}

// TestRandomDeltaDeterministic checks that one rng seed yields one delta:
// two draws from identically seeded streams are deeply equal, order
// reveals included (their entity group was once picked in map order).
func TestRandomDeltaDeterministic(t *testing.T) {
	s := Random(Default(3))
	cfg := DeltaConfig{Inserts: 2, NewEntity: 0.2, Deletes: 2, Orders: 4, PConstraint: 0.5, PCopyDrop: 0.5}
	for seed := int64(0); seed < 100; seed++ {
		a := RandomDelta(rand.New(rand.NewSource(seed)), s, cfg)
		b := RandomDelta(rand.New(rand.NewSource(seed)), s, cfg)
		if len(a.Orders) == 0 {
			t.Fatalf("seed %d: no order reveal drawn; the check would be vacuous", seed)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: identical rng streams drew different deltas:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestChainedCopiesRespectCopyingCondition regression-tests the ordering
// bug where R0 ⇐ R1 copied values that R1 ⇐ R2 later rewrote.
func TestChainedCopiesRespectCopyingCondition(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		cfg := Default(seed)
		cfg.Relations = 3
		cfg.Copies = 2
		cfg.CopyDensity = 0.9
		s := Random(cfg)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRandomSPQueryIsSP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := Random(Default(1))
	for i := 0; i < 30; i++ {
		q := RandomSPQuery(rng, s.Relations[0].Schema, "Q", 3)
		if err := q.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !query.IsSP(q) {
			t.Fatalf("iteration %d: generated query is not SP: %v", i, q)
		}
	}
}

func TestRandomCQQueryIsCQ(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := Random(Default(2))
	for i := 0; i < 30; i++ {
		q := RandomCQQuery(rng, s, "Q", 3)
		if err := q.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if c := query.Classify(q); c != query.LangCQ && c != query.LangSP {
			t.Fatalf("iteration %d: classified %v: %v", i, c, q)
		}
	}
}

func TestRandomConstraintValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Random(Default(3))
	for i := 0; i < 50; i++ {
		c := RandomConstraint(rng, s.Relations[0].Schema, "c")
		if err := c.Validate(s.Relations[0].Schema); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}
