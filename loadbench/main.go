// Command loadbench is currencyd's end-to-end load benchmark. It starts
// currencyd in this process behind real loopback TCP listeners, drives
// it through internal/client with two client goroutines, checks every
// answer against an oracle, and prints the end-to-end metrics; with
// --trace 1 it also walks a sample of the same requests down the layers
// and prints per-layer metrics instead. See README.md.
//
// Usage, from the repository root:
//
//	bash loadbench/run.sh --workload exact-read --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// setupReps is how many fresh systems each run sets up; setup_s is the
// first quartile of their set-up times, and the last one serves the load.
const setupReps = 7

// warmup is the untimed read-only closed loop before the timed phases.
const warmup = 500 * time.Millisecond

// closedShare is the percentage of the measured seconds spent in the
// closed loop, which every end-to-end metric but setup_s comes from; the
// open loop gets the rest.
const closedShare = 75

func main() {
	name := flag.String("workload", "exact-read", "traffic mix: exact-read, ptime-read, patch-mix or ring-mix")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	holdout := flag.Bool("holdout", false, "draw inputs from the hold-out seed stream, disjoint from the usual one")
	seconds := flag.Int("seconds", 24, "measured seconds, 75% in the closed loop and 25% in the open loop")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "loadbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := run(os.Stdout, w, *seed, *holdout, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %v\n", err)
		os.Exit(1)
	}
}

// memSnapshot is the allocator's counters at one instant.
type memSnapshot struct {
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func takeMemSnapshot() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func run(out io.Writer, w workload, seed int64, holdout bool, seconds int, traced bool) error {
	specs, err := makeInputs(w, seed, holdout)
	if err != nil {
		return err
	}

	var (
		t          *sut
		setupTimes []float64
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC() // start each set-up from the same collector state
		st, c, d, err := setup(w, specs)
		if err != nil {
			return err
		}
		c.close()
		setupTimes = append(setupTimes, d.Seconds())
		if i < setupReps-1 {
			st.stop()
		} else {
			t = st
		}
	}
	defer t.stop()

	r, err := newRunner(w, specs, t, seed)
	if err != nil {
		return err
	}
	conns := make([]*conn, clients)
	for c := range conns {
		conns[c] = t.dial()
		defer conns[c].close()
	}
	warm := r.closedLoop(conns, warmup, seed+1, true)

	before, err := r.counters()
	if err != nil {
		return err
	}
	m0 := takeMemSnapshot()
	closed := r.closedLoop(conns, time.Duration(seconds)*time.Second*closedShare/100, seed, false)
	m1 := takeMemSnapshot()
	open := r.openLoop(conns, time.Duration(seconds)*time.Second*(100-closedShare)/100, seed)
	after, err := r.counters()
	if err != nil {
		return err
	}

	timed := append(append([]*phase(nil), closed.phases...), open.phases...)
	replayed, replayErrs := r.replay(timed, seed)

	res := result{Correct: true}
	var notes []string
	for _, p := range append(warm.phases, timed...) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.wrong > 0 || p.attempted != p.ok+p.failed {
			res.Correct = false
		}
		for _, e := range p.errs {
			notes = append(notes, "error: "+e)
		}
	}
	for _, e := range replayErrs {
		notes = append(notes, "oracle: "+e)
	}

	vals := make(map[string]float64)
	var closedAttempted, timedOps int
	var reads, writes, openLat []sample
	var lags, late []time.Duration
	for _, p := range closed.phases {
		closedAttempted += p.attempted
		reads = append(reads, p.reads...)
		writes = append(writes, p.writes...)
		lags = append(lags, p.lags...)
	}
	for _, p := range open.phases {
		openLat = append(append(openLat, p.reads...), p.writes...)
		late = append(late, p.late...)
	}
	for _, p := range timed {
		timedOps += p.attempted
	}
	vals["setup_s"] = quartile(setupTimes, 1)
	vals["ops_per_s"], vals["cpu_us_per_op"] = closedThroughput(closed, append(append([]sample(nil), reads...), writes...))
	vals["read_p50_us"] = windowedPercentile(reads, closed.length, 0.50)
	vals["load.read_p99_us"] = windowedPercentile(reads, closed.length, 0.99)
	vals["load.open_p50_us"] = windowedPercentile(openLat, open.length, 0.50)
	vals["load.open_p99_us"] = windowedPercentile(openLat, open.length, 0.99)
	vals["ok_ratio"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	vals["load.write_p50_us"] = windowedPercentile(writes, closed.length, 0.50)
	vals["load.write_p99_us"] = windowedPercentile(writes, closed.length, 0.99)
	vals["load.error_rate"] = float64(res.Failed) / float64(res.Attempted)
	vals["cluster.replica_lag_p50_us"] = percentile(lags, 0.50)
	vals["harness.open_late_p99_us"] = percentile(late, 0.99)
	if closedAttempted > 0 {
		n := float64(closedAttempted)
		vals["go.allocs_per_op"] = float64(m1.mallocs-m0.mallocs) / n
		vals["go.bytes_per_op"] = float64(m1.bytes-m0.bytes) / n
		vals["go.gc_cycles_per_kop"] = float64(m1.gcs-m0.gcs) / n * 1000
	}
	counterMetrics(vals, before, after, timedOps)
	notes = append(notes, fmt.Sprintf(
		"samples: closed reads %d, closed writes %d, open %d, lag %d, replayed %d; open rate %.0f/s",
		len(reads), len(writes), len(openLat), len(lags), replayed, w.openRate))

	// heap_mb: live heap once the harness's own buffers are released.
	reads, writes, openLat, lags, late, closed, open, timed, warm = nil, nil, nil, nil, nil, loop{}, loop{}, nil, loop{}
	for _, ch := range r.chains {
		ch.deltas = nil
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vals["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	names := endToEnd
	if traced {
		if err := r.descend(vals, seed); err != nil {
			return err
		}
		names = perLayer
	}
	return printResult(out, newStamp(w.name, seed, holdout, seconds, traced), notes, names, vals, res)
}
