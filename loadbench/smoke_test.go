package main

// The benchmark's own smoke check, kept short (about fifteen seconds):
//
//	cd loadbench && go test .
//
// It checks that BENCHMARK.json names exactly the metrics the benchmark
// prints, with the same units; that a short run prints every one of them
// with a unit; that every phase accounts for each op it sent as
// succeeded or failed; and that the oracle flags a deliberately wrong
// verdict, both against a precomputed expectation and on replay.

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"currency/internal/api"
)

type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchDef(t *testing.T) benchDef {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

func TestDefinitionMatchesPrintedMetrics(t *testing.T) {
	def := readBenchDef(t)
	same := func(kind string, declared []struct{ Name, Unit string }, printed []struct{ name, unit string }) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
		}
		units := make(map[string]string)
		for _, m := range printed {
			units[m.name] = m.unit
		}
		for _, m := range declared {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s declared with unit %q, printed with %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	for _, w := range def.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not know", w.Name)
		}
	}
}

// lastResult parses the report's last line.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

func TestShortRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, tc := range []struct {
		workload string
		traced   bool
		names    []struct{ name, unit string }
	}{
		{"exact-read", false, endToEnd},
		{"patch-mix", true, perLayer},
	} {
		w, _ := workloadByName(tc.workload)
		var out bytes.Buffer
		if err := run(&out, w, 3, false, 1, tc.traced); err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		res := lastResult(t, out.String())
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", tc.workload, res.Correct, res.Attempted, res.Failed, out.String())
		}
		if len(res.Metrics) != len(tc.names) {
			t.Errorf("%s: printed %d metrics, want %d", tc.workload, len(res.Metrics), len(tc.names))
		}
		for _, m := range tc.names {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("%s: metric %s missing or with unit %q, want %q", tc.workload, m.name, got.Unit, m.unit)
			}
		}
	}
}

// harness starts a workload's system and runner for the phase checks.
func harness(t *testing.T, name string) (*runner, []*conn) {
	t.Helper()
	w, _ := workloadByName(name)
	specs, err := makeInputs(w, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	sys, c, _, err := setup(w, specs)
	if err != nil {
		t.Fatal(err)
	}
	c.close()
	t.Cleanup(sys.stop)
	r, err := newRunner(w, specs, sys, 5)
	if err != nil {
		t.Fatal(err)
	}
	conns := []*conn{sys.dial(), sys.dial()}
	t.Cleanup(func() {
		for _, c := range conns {
			c.close()
		}
	})
	return r, conns
}

func TestPhasesAccountForEveryOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	r, conns := harness(t, "ring-mix")
	closed := r.closedLoop(conns, 300*time.Millisecond, 5, false)
	open := r.openLoop(conns, 300*time.Millisecond, 5)
	for i, p := range append(closed.phases, open.phases...) {
		if p.attempted == 0 || p.attempted != p.ok+p.failed || len(p.reads)+len(p.writes) != p.attempted {
			t.Errorf("phase %d: sent %d, succeeded %d, failed %d, latency samples %d",
				i, p.attempted, p.ok, p.failed, len(p.reads)+len(p.writes))
		}
	}
}

func TestOracleFlagsWrongVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	// Against a precomputed expectation.
	r, conns := harness(t, "exact-read")
	rq := r.specs[0].pool[api.OpCertainOrder][0]
	rq.want.holds = !rq.want.holds
	p := &phase{start: time.Now(), attempted: 1}
	r.read(conns[0].pick(), p, 0, &rq, time.Now(), &p.reads)
	if p.wrong != 1 || p.failed != 1 || p.ok != 0 || p.reads[0].lat != failLat {
		t.Errorf("flipped expectation: wrong %d failed %d ok %d", p.wrong, p.failed, p.ok)
	}

	// On replay, after writes.
	r, conns = harness(t, "patch-mix")
	closed := r.closedLoop(conns, 300*time.Millisecond, 5, false).phases
	var victim *readRecord
	for _, p := range closed {
		if len(p.records) > 8 {
			p.records = p.records[:8] // keep the sample whole, so the victim is replayed
		}
		if victim == nil && len(p.records) > 0 {
			victim = &p.records[0]
		}
	}
	if victim == nil {
		t.Fatal("no read was served after a write")
	}
	victim.got.holds = !victim.got.holds
	wrongBefore := victim.ph.wrong
	if _, errs := r.replay(closed, 5); len(errs) != 1 {
		t.Errorf("replay reported %d disagreements, want 1: %v", len(errs), errs)
	}
	if victim.ph.wrong != wrongBefore+1 || (*victim.lats)[victim.idx].lat != failLat {
		t.Errorf("the wrong verdict was not turned into a failed op")
	}
	for i, p := range closed {
		if p.attempted != p.ok+p.failed {
			t.Errorf("phase %d after replay: sent %d, succeeded %d, failed %d", i, p.attempted, p.ok, p.failed)
		}
	}
}
