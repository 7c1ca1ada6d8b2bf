// Command currencybench reproduces the paper's evaluation tables as
// runnable experiments and prints the measured rows. For each row of
// Table II and Table III it runs the exact procedure on hard workloads
// and the Section 6 polynomial algorithm on constraint-free workloads,
// reporting wall-clock growth so the complexity shape is visible; it also
// replays the worked examples (Figures 1 and 3) and the hardness gadgets
// (Figures 2 and 5, Theorem 3.1).
//
// Usage:
//
//	currencybench            # all experiments
//	currencybench -table II  # only Table II rows
//	currencybench -table III
//	currencybench -table figures
//	currencybench -table solver  # decomposed-engine scaling rows
//	currencybench -json      # one JSON object per experiment row
//
// With -json, headers and prose are suppressed and every measured row is
// emitted as a single-line JSON object with a "table" and "experiment"
// discriminator and durations in nanoseconds — the format tracked in
// BENCH_*.json files to follow the performance trajectory across PRs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"currency"
	"currency/internal/client"
	"currency/internal/cluster"
	"currency/internal/core"
	"currency/internal/gen"
	"currency/internal/osolve"
	"currency/internal/paperdb"
	"currency/internal/parse"
	"currency/internal/reductions"
	"currency/internal/server"
	"currency/internal/tractable"
)

// jsonMode suppresses the human-readable tables and emits one JSON object
// per experiment row instead.
var jsonMode bool

// emit reports one experiment row: the JSON object in -json mode, the
// formatted line otherwise. Durations in row must be nanosecond ints.
func emit(row map[string]any, format string, args ...any) {
	if jsonMode {
		b, err := json.Marshal(row)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Printf(format, args...)
}

// prose prints explanatory text, suppressed in -json mode.
func prose(format string, args ...any) {
	if !jsonMode {
		fmt.Printf(format, args...)
	}
}

func timed(f func()) time.Duration {
	// Best of three runs, to damp scheduler noise in one-shot timings.
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// hardWorkload returns a CONSISTENT specification with denial constraints
// (searching seeds): inconsistent specifications short-circuit most
// procedures and would make the exact columns look trivially fast.
func hardWorkload(entities int) *currency.Specification {
	for seed := int64(42); ; seed++ {
		s := gen.Random(gen.Config{
			Seed: seed, Relations: 2, Entities: entities, TuplesPerEntity: 3,
			Attrs: 2, Domain: 3, OrderDensity: 0.3, Constraints: 3, Copies: 1, CopyDensity: 0.5,
		})
		r, err := core.NewReasoner(s)
		if err != nil {
			log.Fatal(err)
		}
		if r.Consistent() {
			return s
		}
	}
}

func easyWorkload(entities int) *currency.Specification {
	return gen.Random(gen.Config{
		Seed: 42, Relations: 2, Entities: entities, TuplesPerEntity: 3,
		Attrs: 2, Domain: 3, OrderDensity: 0.3, Constraints: 0, Copies: 1, CopyDensity: 0.5,
	})
}

func header(title string) {
	if jsonMode {
		return
	}
	fmt.Println()
	fmt.Println(title)
	for range title {
		fmt.Print("-")
	}
	fmt.Println()
}

func tableII() {
	header("Table II — CPS / COP / DCIP")
	prose("paper: NP-c / coNP-c / coNP-c data complexity; PTIME without denial constraints (Thm 6.1)\n")
	prose("%-8s %-14s %-18s %-18s\n", "problem", "entities", "exact (with DCs)", "PTIME (no DCs)")
	for _, n := range []int{2, 4, 8, 16, 32} {
		hard := hardWorkload(n)
		easy := easyWorkload(n * 4) // the PTIME side takes much larger inputs
		var exact, fast time.Duration
		exact = timed(func() {
			r, err := core.NewReasoner(hard)
			if err != nil {
				log.Fatal(err)
			}
			r.Consistent()
		})
		fast = timed(func() {
			if _, err := tractable.Consistent(easy); err != nil {
				log.Fatal(err)
			}
		})
		emit(map[string]any{
			"table": "II", "experiment": "CPS",
			"entities_exact": n, "entities_ptime": n * 4,
			"exact_ns": exact.Nanoseconds(), "ptime_ns": fast.Nanoseconds(),
		}, "%-8s %-14s %-18v %-18v\n", "CPS", fmt.Sprintf("%d / %d", n, n*4), exact, fast)
	}
	for _, n := range []int{2, 4, 8, 16} {
		hard := hardWorkload(n)
		easy := easyWorkload(n * 4)
		r, err := core.NewReasoner(hard)
		if err != nil {
			log.Fatal(err)
		}
		req := []core.OrderRequirement{{Rel: "R0", Attr: "A0", I: 0, J: 1}}
		exact := timed(func() {
			if _, err := r.CertainOrder(req); err != nil {
				log.Fatal(err)
			}
		})
		fast := timed(func() {
			if _, err := tractable.CertainOrder(easy, []tractable.OrderRequirement{{Rel: "R0", Attr: "A0", I: 0, J: 1}}); err != nil {
				log.Fatal(err)
			}
		})
		emit(map[string]any{
			"table": "II", "experiment": "COP",
			"entities_exact": n, "entities_ptime": n * 4,
			"exact_ns": exact.Nanoseconds(), "ptime_ns": fast.Nanoseconds(),
		}, "%-8s %-14s %-18v %-18v\n", "COP", fmt.Sprintf("%d / %d", n, n*4), exact, fast)
	}
	for _, n := range []int{2, 4, 8, 16} {
		hard := hardWorkload(n)
		easy := easyWorkload(n * 4)
		r, err := core.NewReasoner(hard)
		if err != nil {
			log.Fatal(err)
		}
		exact := timed(func() {
			if _, err := r.Deterministic("R0"); err != nil {
				log.Fatal(err)
			}
		})
		fast := timed(func() {
			if _, err := tractable.Deterministic(easy, "R0"); err != nil {
				log.Fatal(err)
			}
		})
		emit(map[string]any{
			"table": "II", "experiment": "DCIP",
			"entities_exact": n, "entities_ptime": n * 4,
			"exact_ns": exact.Nanoseconds(), "ptime_ns": fast.Nanoseconds(),
		}, "%-8s %-14s %-18v %-18v\n", "DCIP", fmt.Sprintf("%d / %d", n, n*4), exact, fast)
	}

	prose("\nΣp2 hardness gadget (Theorem 3.1): consistency of the ∃∀3DNF encoding\n")
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 2, 3} {
		q := reductions.RandomQBF(rng, []int{m, m}, true, m+1, true)
		s, err := reductions.CPSFromE2ADNF(q)
		if err != nil {
			log.Fatal(err)
		}
		d := timed(func() {
			r, err := core.NewReasoner(s)
			if err != nil {
				log.Fatal(err)
			}
			r.Consistent()
		})
		emit(map[string]any{
			"table": "II", "experiment": "sigma2p-gadget",
			"m": m, "exact_ns": d.Nanoseconds(), "formula": q.String(),
		}, "  m=n=%d: %v (formula %s)\n", m, d, q)
	}
}

func tableIII() {
	header("Table III — CCQA / CPP / ECP / BCP")
	prose("paper: CCQA coNP-c data, Πp2-c CQ..∃FO+, PSPACE-c FO; PTIME for SP without DCs (Prop 6.3)\n")

	s := hardWorkload(4)
	rng := rand.New(rand.NewSource(9))
	sp := gen.RandomSPQuery(rng, s.Relations[0].Schema, "SP", 3)
	cq := gen.RandomCQQuery(rng, s, "CQ", 3)
	prose("%-22s %-10s %-12s\n", "experiment", "language", "time")
	for _, q := range []*currency.Query{sp, cq} {
		r, err := core.NewReasoner(s)
		if err != nil {
			log.Fatal(err)
		}
		d := timed(func() {
			if _, _, err := r.CertainAnswers(q); err != nil {
				log.Fatal(err)
			}
		})
		emit(map[string]any{
			"table": "III", "experiment": "CCQA-exact",
			"language": currency.Classify(q), "exact_ns": d.Nanoseconds(),
		}, "%-22s %-10s %-12v\n", "CCQA exact (with DCs)", currency.Classify(q), d)
	}
	for _, n := range []int{8, 32, 128} {
		easy := easyWorkload(n)
		q := gen.RandomSPQuery(rng, easy.Relations[0].Schema, "SP", 3)
		d := timed(func() {
			if _, _, err := tractable.CertainAnswersSP(easy, q); err != nil {
				log.Fatal(err)
			}
		})
		emit(map[string]any{
			"table": "III", "experiment": "CCQA-ptime",
			"language": "SP", "entities": n, "ptime_ns": d.Nanoseconds(),
		}, "%-22s %-10s %-12v (entities=%d)\n", "CCQA PTIME (no DCs)", "SP", d, n)
	}

	prose("\ncoNP data-hardness gadget (Theorem 3.5, ¬3SAT): 2^m completions\n")
	for _, m := range []int{2, 4, 6, 8} {
		psi := reductions.Random3SAT(rng, m, m+2)
		g, err := reductions.CCQAFrom3SATData(psi)
		if err != nil {
			log.Fatal(err)
		}
		d := timed(func() {
			r, err := core.NewReasoner(g.Spec)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := r.IsCertainAnswer(g.Query, g.Tuple); err != nil {
				log.Fatal(err)
			}
		})
		emit(map[string]any{
			"table": "III", "experiment": "conp-gadget",
			"vars": m, "exact_ns": d.Nanoseconds(),
		}, "  vars=%d: %v\n", m, d)
	}

	prose("\nCPP / ECP / BCP on Example 4.1 (Figure 3 Mgr):\n")
	s1 := paperdb.SpecS1()
	q2 := paperdb.Q2()
	r1, err := core.NewReasoner(s1)
	if err != nil {
		log.Fatal(err)
	}
	d := timed(func() {
		if _, err := r1.CurrencyPreservingMatching(q2); err != nil {
			log.Fatal(err)
		}
	})
	emit(map[string]any{
		"table": "III", "experiment": "CPP-example-4.1", "exact_ns": d.Nanoseconds(),
	}, "  CPP(matching space): %v (answer: not preserving, as in the paper)\n", d)
	d = timed(func() { r1.ExtensionExists() })
	emit(map[string]any{
		"table": "III", "experiment": "ECP-example-4.1", "exact_ns": d.Nanoseconds(),
	}, "  ECP: %v (answer: true — Proposition 5.2)\n", d)
	for _, k := range []int{1, 2} {
		d = timed(func() {
			if _, _, err := r1.BoundedCopyingMatching(q2, k); err != nil {
				log.Fatal(err)
			}
		})
		emit(map[string]any{
			"table": "III", "experiment": "BCP-example-4.1", "k": k, "exact_ns": d.Nanoseconds(),
		}, "  BCP(k=%d): %v\n", k, d)
	}
	for _, n := range []int{4, 8, 16} {
		easy := easyWorkload(n)
		q := gen.RandomSPQuery(rng, easy.Relations[0].Schema, "SP", 3)
		d := timed(func() {
			if _, err := tractable.CurrencyPreservingSP(easy, q); err != nil {
				log.Fatal(err)
			}
		})
		emit(map[string]any{
			"table": "III", "experiment": "CPP-ptime", "entities": n, "ptime_ns": d.Nanoseconds(),
		}, "  CPP PTIME (no DCs, SP, entities=%d): %v\n", n, d)
	}
}

// tableSolver measures the exact engine on multi-entity workloads: cold
// grounding, cold whole-specification verdicts (sequential vs parallel
// component search), and warm component-scoped ordering queries on a
// long-lived reasoner — the currencyd cache scenario — including the
// allocations each warm query pays (zero on the interned engine's steady
// path). The emitted rows are the BENCH_solver.json schema; see the
// README's "Benchmark trajectory" section.
func tableSolver() {
	header("Solver — interned component engine")
	prose("cold CPS grounds and searches every component; warm COP touches one component and reads memoized verdicts for the rest\n")
	prose("%-10s %-12s %-14s %-14s %-16s %-16s %-12s %-12s\n",
		"entities", "components", "cold ground", "cold (1 wkr)", "cold (par)", "warm COP/query", "allocs/query", "decis/query")
	const queries = 200
	for _, n := range []int{4, 16, 64} {
		s := hardWorkload(n)
		probe, err := core.NewReasoner(s)
		if err != nil {
			log.Fatal(err)
		}
		components := probe.Engine().Components()

		coldGround := timed(func() {
			if _, err := core.NewReasoner(s); err != nil {
				log.Fatal(err)
			}
		})
		coldSeq := timed(func() {
			r, err := core.NewReasoner(s)
			if err != nil {
				log.Fatal(err)
			}
			r.Engine().SetWorkers(1)
			r.Consistent()
		})
		coldPar := timed(func() {
			r, err := core.NewReasoner(s)
			if err != nil {
				log.Fatal(err)
			}
			r.Consistent()
		})

		// Warm scoped queries on one long-lived reasoner: every pair of
		// the first entity of R0, round-robin, per-query time.
		warm, err := core.NewReasoner(s)
		if err != nil {
			log.Fatal(err)
		}
		warm.Consistent()
		req := []core.OrderRequirement{{Rel: "R0", Attr: "A0", I: 0, J: 1}}
		runWarm := func() {
			for q := 0; q < queries; q++ {
				req[0].I, req[0].J = q%3, (q+1)%3
				if _, err := warm.CertainOrder(req); err != nil {
					log.Fatal(err)
				}
			}
		}
		runWarm() // prime the solver's state pool before measuring
		perQuery := timed(runWarm) / queries

		// Steady-path allocation count per warm query, measured over one
		// un-timed pass (Mallocs delta, not bytes — object count is what
		// GC pressure scales with).
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runWarm()
		runtime.ReadMemStats(&after)
		warmAllocs := float64(after.Mallocs-before.Mallocs) / queries

		// Engine search effort per warm query, from the same counters
		// /metrics exports: one un-timed pass bracketed by snapshots
		// (pooled states flush on release, so the deltas are complete).
		ecBefore := warm.Engine().Stats().Counters()
		runWarm()
		ecAfter := warm.Engine().Stats().Counters()
		perQ := func(before, after uint64) float64 { return float64(after-before) / queries }
		decisionsPerQ := perQ(ecBefore.Decisions, ecAfter.Decisions)
		propagationsPerQ := perQ(ecBefore.Propagations, ecAfter.Propagations)
		conflictsPerQ := perQ(ecBefore.Conflicts, ecAfter.Conflicts)

		emit(map[string]any{
			"table": "solver", "experiment": "contiguous-engine",
			"entities": n, "components": components, "warm_queries": queries,
			"cold_ground_ns": coldGround.Nanoseconds(),
			"cold_seq_ns":    coldSeq.Nanoseconds(), "cold_par_ns": coldPar.Nanoseconds(),
			"warm_cop_ns": perQuery.Nanoseconds(), "warm_allocs": warmAllocs,
			"decisions_per_query":    decisionsPerQ,
			"propagations_per_query": propagationsPerQ,
			"conflicts_per_query":    conflictsPerQ,
		}, "%-10d %-12d %-14v %-14v %-16v %-16v %-12.2f %-12.2f\n",
			n, components, coldGround, coldSeq, coldPar, perQuery, warmAllocs, decisionsPerQ)
	}
}

// tableIncremental measures the live-update path: applying a small delta
// (≤5% of the tuples) to a warm reasoner via the incremental engine
// patch (Reasoner.Patched → osolve.ApplyDelta) vs re-grounding the
// patched specification from scratch and re-searching every component —
// what a spec update cost before the delta pipeline. Two delta shapes
// per size: insert-only ("delta-vs-reground", the PR 4 row) and
// delete-only ("delete-vs-reground", the delete-remap row — deletes run
// entirely on the reverse literal remap, so delta_apply must stay far
// below a full reground and dropped_rules counts the rules that died
// with their tuples). Emitted rows extend BENCH_solver.json (columns:
// full_reground_ns, delta_apply_ns, spec_apply_ns — the spec-level COW
// delta alone, whose delete path is the indexed order.PairSet remap —
// speedup, touched_comps, reused_comps, copied/reground/dropped rules,
// warm_allocs after the patch).
func tableIncremental() {
	header("Incremental — delta apply vs full re-ground")
	prose("delta = ≤5%% tuple inserts (or deletes) + order reveals against a warm reasoner\n")
	prose("%-10s %-8s %-14s %-14s %-14s %-10s %-14s %-12s\n",
		"entities", "kind", "delta tuples", "full reground", "delta apply", "speedup", "touched comps", "allocs/query")
	for _, n := range []int{16, 64} {
		s := hardWorkload(n)
		tuples := 0
		for _, r := range s.Relations {
			tuples += r.Len()
		}
		k := tuples * 5 / 100
		if k < 1 {
			k = 1
		}
		rng := rand.New(rand.NewSource(int64(n)))
		incrementalRow(s, n, tuples, k, "insert", "delta-vs-reground",
			gen.RandomDelta(rng, s, gen.DeltaConfig{Inserts: k, NewEntity: 0.2, Orders: 1}))
		incrementalRow(s, n, tuples, k, "delete", "delete-vs-reground",
			gen.RandomDelta(rng, s, gen.DeltaConfig{Deletes: k}))
	}
	prose("\nwrite chain = %d chained writes (insert one tuple, reveal one pair, delete the previous insert)\n", writeChainPatches)
	prose("%-10s %-14s %-14s %-14s %-14s %-14s\n",
		"entities", "delta apply", "spec apply", "full rebuilds", "touched comps", "inconsistent")
	for _, n := range []int{16, 64, 256} {
		writeChainRow(n)
	}
}

// writeChainPatches is the length of the write-chain experiment.
const writeChainPatches = 64

// writeChainRow measures currencyd's PATCH write chain on the engine: a
// warm reasoner takes writeChainPatches chained writes
// (gen.WriteChainDelta), each applied with Reasoner.Patched, whose result
// becomes the next version. A version whose base propagation conflicts
// can occur along the chain; full_rebuilds shows whether the patch after
// it stayed incremental. Columns are means
// per patch, each patch timed best of three: delta_apply_ns
// (Reasoner.Patched: spec apply, incremental re-ground, re-search of
// touched components), spec_apply_ns (a standalone spec.Delta.Apply of
// the same delta), touched_comps (rebuilt components); full_rebuilds and
// inconsistent_versions are counts over the chain.
func writeChainRow(n int) {
	s := hardWorkload(n)
	tuples := 0
	for _, r := range s.Relations {
		tuples += r.Len()
	}
	r, err := core.NewReasoner(s)
	if err != nil {
		log.Fatal(err)
	}
	r.Consistent()
	rng := rand.New(rand.NewSource(int64(n)))
	var deltaApply, specApply time.Duration
	fullRebuilds, touched, inconsistent := 0, 0, 0
	prev := ""
	for k := 0; k < writeChainPatches; k++ {
		d, err := gen.WriteChainDelta(rng, r.Spec(), prev)
		if err != nil {
			log.Fatal(err)
		}
		prev = d.Inserts[0].Rel
		specApply += timed(func() {
			if _, _, err := d.Apply(r.Spec()); err != nil {
				log.Fatal(err)
			}
		})
		var next *core.Reasoner
		deltaApply += timed(func() {
			if next, err = r.Patched(d); err != nil {
				log.Fatal(err)
			}
		})
		stats, _ := next.Engine().PatchStats()
		if stats.FullRebuild {
			fullRebuilds++
		}
		touched += stats.RebuiltComps
		if !next.Consistent() {
			inconsistent++
		}
		r = next
	}
	mean := func(d time.Duration) time.Duration { return d / writeChainPatches }
	touchedMean := float64(touched) / writeChainPatches
	emit(map[string]any{
		"table": "incremental", "experiment": "write-chain",
		"entities": n, "tuples": tuples, "patches": writeChainPatches,
		"delta_apply_ns":        mean(deltaApply).Nanoseconds(),
		"spec_apply_ns":         mean(specApply).Nanoseconds(),
		"full_rebuilds":         fullRebuilds,
		"touched_comps":         touchedMean,
		"inconsistent_versions": inconsistent,
	}, "%-10d %-14v %-14v %-14d %-14.1f %-14d\n",
		n, mean(deltaApply), mean(specApply), fullRebuilds, touchedMean, inconsistent)
}

// incrementalRow measures one delta shape against one workload.
func incrementalRow(s *currency.Specification, n, tuples, k int, kind, experiment string, d *currency.Delta) {
	const queries = 200
	warm, err := core.NewReasoner(s)
	if err != nil {
		log.Fatal(err)
	}
	warm.Consistent()

	patchedSpec, _, err := d.Apply(s)
	if err != nil {
		log.Fatal(err)
	}
	// Spec-level COW delta alone (the PairSet remap dominates the delete
	// path): µs-scale, so average a loop per timed run.
	const specReps = 16
	specApply := timed(func() {
		for i := 0; i < specReps; i++ {
			if _, _, err := d.Apply(s); err != nil {
				log.Fatal(err)
			}
		}
	}) / specReps
	fullReground := timed(func() {
		r, err := core.NewReasoner(patchedSpec)
		if err != nil {
			log.Fatal(err)
		}
		r.Consistent()
	})
	// The delta is µs-scale; average a small loop per timed run so a
	// single GC pause cannot dominate the measurement.
	const applyReps = 8
	deltaApply := timed(func() {
		for i := 0; i < applyReps; i++ {
			if _, err := warm.Patched(d); err != nil {
				log.Fatal(err)
			}
		}
	}) / applyReps

	patched, err := warm.Patched(d)
	if err != nil {
		log.Fatal(err)
	}
	stats, _ := patched.Engine().PatchStats()

	// Post-patch warm query allocations, as in tableSolver.
	req := []core.OrderRequirement{{Rel: "R0", Attr: "A0", I: 0, J: 1}}
	runWarm := func() {
		for q := 0; q < queries; q++ {
			req[0].I, req[0].J = q%3, (q+1)%3
			if _, err := patched.CertainOrder(req); err != nil {
				log.Fatal(err)
			}
		}
	}
	runWarm() // prime the patched solver's state pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runWarm()
	runtime.ReadMemStats(&after)
	warmAllocs := float64(after.Mallocs-before.Mallocs) / queries

	speedup := float64(fullReground.Nanoseconds()) / float64(deltaApply.Nanoseconds())
	emit(map[string]any{
		"table": "incremental", "experiment": experiment, "delta_kind": kind,
		"entities": n, "tuples": tuples, "delta_tuples": k,
		"full_reground_ns": fullReground.Nanoseconds(),
		"delta_apply_ns":   deltaApply.Nanoseconds(),
		"spec_apply_ns":    specApply.Nanoseconds(),
		"speedup":          speedup,
		"touched_comps":    stats.RebuiltComps, "reused_comps": stats.ReusedComps,
		"copied_rules": stats.CopiedRules, "reground_rules": stats.RegroundRules,
		"dropped_rules": stats.DroppedRules,
		"warm_allocs":   warmAllocs,
	}, "%-10d %-8s %-14d %-14v %-14v %-10.1f %-14s %-12.2f\n",
		n, kind, k, fullReground, deltaApply, speedup,
		fmt.Sprintf("%d/%d", stats.RebuiltComps, stats.RebuiltComps+stats.ReusedComps), warmAllocs)
}

// hardnessSolve measures one gadget solve in one engine mode. Grounding
// is polynomial and identical in both modes, so each of the five reps
// grounds a fresh reasoner untimed and times only the solve (verdicts
// memoize — re-timing a warm reasoner would measure the cache, not the
// search; five reps rather than the usual three because sub-millisecond
// solves are the benchgate's noisiest gated rows). Returns the best
// rep's solve time and that rep's engine counter totals (fresh solver,
// so the totals are the solve's effort).
func hardnessSolve(build func() *core.Reasoner, cdcl bool, solve func(*core.Reasoner)) (time.Duration, osolve.EngineCounters) {
	var best time.Duration
	var ec osolve.EngineCounters
	for i := 0; i < 5; i++ {
		r := build()
		r.Engine().SetCDCL(cdcl)
		start := time.Now()
		solve(r)
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
			ec = r.Engine().Stats().Counters()
		}
	}
	return best, ec
}

// hardnessModes orders the baseline first so BENCH_solver.json carries
// the chronological row a CDCL row is compared against.
var hardnessModes = []struct {
	name string
	cdcl bool
}{
	{"chronological", false},
	{"cdcl", true},
}

// tableHardness measures the two-phase search engine on the paper's
// reduction gadgets — workloads whose conflict structure defeats
// chronological backtracking. The Betweenness gadget (Theorem 3.1,
// CPSFromBetweenness) is solved in both modes at sizes the chronological
// engine can still finish (it explodes past t=3 triples: minutes where
// CDCL takes under a millisecond) and CDCL-only at larger sizes; the
// ¬3SAT CCQA gadget (Theorem 3.5) is enumeration-bound — near-zero
// conflicts, so both modes tie and the rows pin that CDCL adds no
// overhead when there is nothing to learn. Instances are drawn from
// fixed seeds so rows are comparable across PRs. The emitted rows extend
// BENCH_solver.json (columns: hardness_solve_ns, learned_clauses,
// backjumps, restarts, conflicts_per_query, sat).
func tableHardness() {
	header("Hardness — conflict-driven vs chronological search on reduction gadgets")
	prose("Betweenness (Thm 3.1) consistency and ¬3SAT CCQA (Thm 3.5); grounding untimed, solve best-of-3 on fresh reasoners\n")
	prose("%-14s %-12s %-16s %-14s %-10s %-10s %-10s %-10s\n",
		"gadget", "size", "mode", "solve", "conflicts", "learned", "backjumps", "restarts")

	for _, c := range []struct {
		n, t int
		both bool // chronological finishes only on the small sizes
	}{{4, 2, true}, {4, 3, true}, {6, 6, false}, {9, 12, false}} {
		rng := rand.New(rand.NewSource(int64(31*c.n + c.t)))
		inst := reductions.BetweennessInstance{N: c.n}
		for k := 0; k < c.t; k++ {
			p := rng.Perm(c.n)
			inst.Triples = append(inst.Triples, [3]int{p[0], p[1], p[2]})
		}
		s, err := reductions.CPSFromBetweenness(inst)
		if err != nil {
			log.Fatal(err)
		}
		build := func() *core.Reasoner {
			r, err := core.NewReasoner(s)
			if err != nil {
				log.Fatal(err)
			}
			return r
		}
		var sat bool
		for _, mode := range hardnessModes {
			if !mode.cdcl && !c.both {
				continue
			}
			d, ec := hardnessSolve(build, mode.cdcl, func(r *core.Reasoner) {
				sat = r.Consistent()
			})
			emit(map[string]any{
				"table": "hardness", "experiment": "betweenness", "mode": mode.name,
				"n": c.n, "triples": c.t, "sat": sat,
				"hardness_solve_ns":   d.Nanoseconds(),
				"conflicts_per_query": ec.Conflicts,
				"learned_clauses":     ec.LearnedClauses,
				"backjumps":           ec.Backjumps,
				"restarts":            ec.Restarts,
			}, "%-14s %-12s %-16s %-14v %-10d %-10d %-10d %-10d\n",
				"betweenness", fmt.Sprintf("n=%d t=%d", c.n, c.t), mode.name,
				d, ec.Conflicts, ec.LearnedClauses, ec.Backjumps, ec.Restarts)
		}
	}

	rng := rand.New(rand.NewSource(23))
	for _, m := range []int{4, 6} {
		psi := reductions.Random3SAT(rng, m, m+2)
		g, err := reductions.CCQAFrom3SATData(psi)
		if err != nil {
			log.Fatal(err)
		}
		build := func() *core.Reasoner {
			r, err := core.NewReasoner(g.Spec)
			if err != nil {
				log.Fatal(err)
			}
			return r
		}
		var certain bool
		for _, mode := range hardnessModes {
			d, ec := hardnessSolve(build, mode.cdcl, func(r *core.Reasoner) {
				var err error
				certain, err = r.IsCertainAnswer(g.Query, g.Tuple)
				if err != nil {
					log.Fatal(err)
				}
			})
			emit(map[string]any{
				"table": "hardness", "experiment": "ccqa-3sat", "mode": mode.name,
				"vars": m, "clauses": m + 2, "certain": certain,
				"hardness_solve_ns":   d.Nanoseconds(),
				"conflicts_per_query": ec.Conflicts,
				"learned_clauses":     ec.LearnedClauses,
				"backjumps":           ec.Backjumps,
				"restarts":            ec.Restarts,
			}, "%-14s %-12s %-16s %-14v %-10d %-10d %-10d %-10d\n",
				"ccqa-3sat", fmt.Sprintf("m=%d", m), mode.name,
				d, ec.Conflicts, ec.LearnedClauses, ec.Backjumps, ec.Restarts)
		}
	}
}

// benchSwap lets the cluster listeners exist before the servers they
// route to: the ring needs every node's URL, the servers need the ring.
type benchSwap struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *benchSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

// benchCluster is an in-process currencyd ring for the cluster table:
// real HTTP between nodes (httptest listeners), real forwarding and
// replication, one process.
type benchCluster struct {
	ring     *cluster.Ring
	servers  []*server.Server
	clients  []*client.Client
	tss      []*httptest.Server
	byNodeID map[string]int
}

func bootBenchCluster(n, replicas int) *benchCluster {
	bc := &benchCluster{byNodeID: make(map[string]int, n)}
	swaps := make([]*benchSwap, n)
	nodes := make([]cluster.Node, n)
	for i := 0; i < n; i++ {
		swaps[i] = &benchSwap{}
		ts := httptest.NewServer(swaps[i])
		bc.tss = append(bc.tss, ts)
		nodes[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), Addr: ts.URL}
		bc.byNodeID[nodes[i].ID] = i
	}
	ring, err := cluster.New(nodes, replicas)
	if err != nil {
		log.Fatal(err)
	}
	bc.ring = ring
	for i := 0; i < n; i++ {
		srv := server.New(server.Options{
			CacheSize: 16, Workers: 4, SlowQuery: -1,
			Cluster: &server.ClusterOptions{
				Self: nodes[i].ID, Nodes: nodes, Replicas: replicas,
			},
		})
		bc.servers = append(bc.servers, srv)
		bc.clients = append(bc.clients, client.New(bc.tss[i].URL, nil))
		swaps[i].mu.Lock()
		swaps[i].h = srv.Handler()
		swaps[i].mu.Unlock()
	}
	return bc
}

func (bc *benchCluster) close() {
	for _, s := range bc.servers {
		s.Close()
	}
	for _, ts := range bc.tss {
		ts.Close()
	}
}

// waitReplicated polls until every follower of spec reports version v.
func (bc *benchCluster) waitReplicated(spec string, v int) {
	deadline := time.Now().Add(10 * time.Second)
	for _, f := range bc.ring.Followers(spec) {
		c := bc.clients[bc.byNodeID[f.ID]]
		for {
			st, err := c.ClusterStatus()
			if err != nil {
				log.Fatal(err)
			}
			if st.Versions[spec] >= v {
				break
			}
			if time.Now().After(deadline) {
				log.Fatalf("follower %s stuck below v%d for %s", f.ID, v, spec)
			}
		}
	}
}

// tableCluster measures the sharding layer on an in-process 3-node ring:
// the forwarding hop a misrouted query pays versus answering at the
// owner, the owner-to-follower replication lag of one streamed delta,
// and sequential patch throughput at the owner as the replication
// fan-out grows. All traffic crosses real HTTP listeners; the rows
// extend BENCH_solver.json (columns: local_query_ns, forwarded_query_ns,
// forward_overhead_ns, replication_lag_ns, patches_per_sec).
func tableCluster() {
	header("Cluster — forwarding, replication lag, patch throughput")
	prose("3-node in-process ring over httptest listeners; owner computed by rendezvous hash\n")
	const nodes = 3
	const id = "bench"
	spec := hardWorkload(8)

	// Forwarding: per-query latency at the owner vs at a non-holder node
	// (which proxies one hop to the owner). Warm both paths first so the
	// difference is the hop, not a cold grounding.
	bc := bootBenchCluster(nodes, 0)
	owner := bc.byNodeID[bc.ring.Owner(id).ID]
	nonHolder := -1
	for i := range bc.clients {
		if !bc.ring.IsHolder(id, bc.ring.Nodes()[i].ID) {
			nonHolder = bc.byNodeID[bc.ring.Nodes()[i].ID]
			break
		}
	}
	if _, err := bc.clients[owner].RegisterSpec(id, parse.Marshal(spec)); err != nil {
		log.Fatal(err)
	}
	const queries = 50
	queryLoop := func(c *client.Client) func() {
		return func() {
			for q := 0; q < queries; q++ {
				if _, err := c.Consistent(id); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	queryLoop(bc.clients[owner])()     // warm the owner's reasoner
	queryLoop(bc.clients[nonHolder])() // warm the forwarding path
	local := timed(queryLoop(bc.clients[owner])) / queries
	forwarded := timed(queryLoop(bc.clients[nonHolder])) / queries
	emit(map[string]any{
		"table": "cluster", "experiment": "forwarding", "nodes": nodes,
		"local_query_ns":      local.Nanoseconds(),
		"forwarded_query_ns":  forwarded.Nanoseconds(),
		"forward_overhead_ns": (forwarded - local).Nanoseconds(),
	}, "forwarding: local %v, forwarded %v, hop overhead %v\n",
		local, forwarded, forwarded-local)
	bc.close()

	// Replication lag: patch at the owner, then spin until the follower's
	// version vector catches up. The patch response already includes the
	// owner's apply, so the measured window is enqueue → stream → replica
	// delta apply, averaged over a short patch stream.
	bc = bootBenchCluster(nodes, 1)
	owner = bc.byNodeID[bc.ring.Owner(id).ID]
	cur := spec
	if _, err := bc.clients[owner].RegisterSpec(id, parse.Marshal(cur)); err != nil {
		log.Fatal(err)
	}
	bc.waitReplicated(id, 1)
	rng := rand.New(rand.NewSource(77))
	const lagPatches = 8
	var lagSum time.Duration
	version := 1
	for i := 0; i < lagPatches; i++ {
		d := gen.RandomDelta(rng, cur, gen.DeltaConfig{Inserts: 1, Orders: 1})
		wire := gen.WireDelta(cur, d)
		next, _, err := d.Apply(cur)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := bc.clients[owner].PatchSpec(id, wire); err != nil {
			log.Fatal(err)
		}
		version++
		start := time.Now()
		bc.waitReplicated(id, version)
		lagSum += time.Since(start)
		cur = next
	}
	lag := lagSum / lagPatches
	emit(map[string]any{
		"table": "cluster", "experiment": "replication", "nodes": nodes,
		"replicas": 1, "replication_lag_ns": lag.Nanoseconds(),
	}, "replication: owner→follower delta lag %v (mean of %d patches)\n", lag, lagPatches)
	bc.close()

	// Patch throughput at the owner as the replication fan-out grows:
	// replication is asynchronous, so the cost visible here is the
	// owner's own apply plus frame fan-out, never a follower's apply.
	for _, replicas := range []int{0, 1, 2} {
		bc = bootBenchCluster(nodes, replicas)
		owner = bc.byNodeID[bc.ring.Owner(id).ID]
		cur = spec
		if _, err := bc.clients[owner].RegisterSpec(id, parse.Marshal(cur)); err != nil {
			log.Fatal(err)
		}
		bc.waitReplicated(id, 1)
		const patches = 16
		version = 1
		start := time.Now()
		for i := 0; i < patches; i++ {
			d := gen.RandomDelta(rng, cur, gen.DeltaConfig{Inserts: 1})
			wire := gen.WireDelta(cur, d)
			next, _, err := d.Apply(cur)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := bc.clients[owner].PatchSpec(id, wire); err != nil {
				log.Fatal(err)
			}
			version++
			cur = next
		}
		elapsed := time.Since(start)
		bc.waitReplicated(id, version)
		perSec := float64(patches) / elapsed.Seconds()
		emit(map[string]any{
			"table": "cluster", "experiment": "patch-throughput", "nodes": nodes,
			"replicas": replicas, "patches": patches,
			"patches_per_sec": perSec,
		}, "patch throughput: %.0f patches/sec with %d follower applier(s)\n",
			perSec, replicas)
		bc.close()
	}
}

func figures() {
	header("Figures — worked examples and gadget instances")
	s0 := paperdb.SpecS0()
	r0, err := core.NewReasoner(s0)
	if err != nil {
		log.Fatal(err)
	}
	prose("Figure 1 + Example 1.1 (certain current answers):\n")
	for _, q := range []*currency.Query{paperdb.Q1(), paperdb.Q2(), paperdb.Q3(), paperdb.Q4()} {
		res, _, err := r0.CertainAnswers(q)
		if err != nil {
			log.Fatal(err)
		}
		emit(map[string]any{
			"table": "figures", "experiment": "example-1.1",
			"query": q.Name, "answers": fmt.Sprint(res),
		}, "  %s = %v\n", q.Name, res)
	}
	prose("expected: Q1=80, Q2=Dupont, Q3=6 Main St, Q4=6000 — matches the paper\n")

	rng := rand.New(rand.NewSource(17))
	prose("\nFigure 2 gadget (∀∃3CNF → CCQA(CQ)):\n")
	for _, m := range []int{1, 2, 3} {
		q := reductions.RandomQBF(rng, []int{m, m}, false, m+1, false)
		g, err := reductions.CCQAFromA2E3CNF(q)
		if err != nil {
			log.Fatal(err)
		}
		var certain bool
		d := timed(func() {
			r, err := core.NewReasoner(g.Spec)
			if err != nil {
				log.Fatal(err)
			}
			certain, err = r.IsCertainAnswer(g.Query, g.Tuple)
			if err != nil {
				log.Fatal(err)
			}
		})
		emit(map[string]any{
			"table": "figures", "experiment": "figure-2-gadget",
			"m": m, "ccqa": certain, "qbf": q.Eval(), "agree": certain == q.Eval(),
			"exact_ns": d.Nanoseconds(),
		}, "  m=n=%d: CCQA=%v QBF=%v agree=%v (%v)\n", m, certain, q.Eval(), certain == q.Eval(), d)
	}

	prose("\nFigure 5 gadget (∀∃3CNF → CPP, conservative extensions):\n")
	for trial := 0; trial < 3; trial++ {
		q := reductions.RandomQBF(rng, []int{1, 1}, false, 1+trial%2, false)
		g, err := reductions.CPPFromA2E3CNF(q)
		if err != nil {
			log.Fatal(err)
		}
		var preserving bool
		d := timed(func() {
			r, err := core.NewReasoner(g.Spec)
			if err != nil {
				log.Fatal(err)
			}
			preserving, err = r.CurrencyPreservingIn(g.Query, core.ConservativeAtomSpace)
			if err != nil {
				log.Fatal(err)
			}
		})
		emit(map[string]any{
			"table": "figures", "experiment": "figure-5-gadget",
			"trial": trial, "cpp": preserving, "qbf": q.Eval(), "agree": preserving == q.Eval(),
			"exact_ns": d.Nanoseconds(),
		}, "  trial %d: CPP=%v QBF=%v agree=%v (%v)\n", trial, preserving, q.Eval(), preserving == q.Eval(), d)
	}
}

func main() {
	log.SetFlags(0)
	table := flag.String("table", "all", "which experiments: II, III, figures, solver, incremental, hardness, cluster, all")
	flag.BoolVar(&jsonMode, "json", false, "emit one JSON object per experiment row")
	flag.Parse()
	prose("currencybench — reproducing the evaluation of \"Determining the Currency of Data\"\n")
	switch *table {
	case "II":
		tableII()
	case "III":
		tableIII()
	case "figures":
		figures()
	case "solver":
		tableSolver()
	case "incremental":
		tableIncremental()
	case "hardness":
		tableHardness()
	case "cluster":
		tableCluster()
	default:
		tableII()
		tableIII()
		figures()
		tableSolver()
		tableIncremental()
		tableHardness()
		tableCluster()
	}
}
