package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics in print order, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"read_p50_us", "us"},
	{"heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// opNames are the op kinds the traced run reports rows for.
var opNames = []string{"cps", "cop", "dcip", "ccqa", "patch"}

// perLayer lists the traced run's metrics in print order, with units.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	perOp := func(prefix, unit string, ops []string) {
		for _, op := range ops {
			add(prefix+"."+op, unit)
		}
	}
	readOps := opNames[:4]
	exactOps := opNames[:3]
	perOp("client.rtt_us", "us", opNames)
	perOp("client.self_us", "us", opNames)
	perOp("harness.request_us", "us", opNames)
	perOp("server.handler_us", "us", opNames)
	perOp("server.handler_self_us", "us", opNames)
	perOp("server.handler_allocs", "count", opNames)
	perOp("api.decode_us", "us", opNames)
	perOp("api.encode_us", "us", opNames)
	perOp("server.decide_us", "us", readOps)
	perOp("server.decide_self_us", "us", readOps)
	perOp("server.decide_allocs", "count", readOps)
	perOp("tractable.us", "us", readOps)
	add("tractable.share", "ratio")
	perOp("core.us", "us", exactOps)
	perOp("core.self_us", "us", exactOps)
	perOp("osolve.us", "us", exactOps)
	perOp("osolve.allocs", "count", exactOps)
	add("server.patch_us", "us")
	add("server.patch_self_us", "us")
	add("core.patched_us", "us")
	add("spec.apply_us", "us")
	add("osolve.touched_comps", "count")
	add("osolve.reused_comps", "count")
	add("core.first_read_after_patch_us", "us")
	add("parse.us", "us")
	add("core.ground_us", "us")
	add("core.first_consistent_us", "us")
	add("server.cache.hit_ratio", "ratio")
	add("server.cache.patched", "count")
	add("server.cache.regrounded", "count")
	add("server.shed", "count")
	add("server.degraded", "count")
	add("server.query_timeouts", "count")
	add("server.patch_conflicts", "count")
	add("server.route.ptime_share", "ratio")
	add("osolve.decisions_per_op", "count")
	add("osolve.propagations_per_op", "count")
	add("osolve.conflicts_per_op", "count")
	add("cluster.forwarded_share", "ratio")
	add("cluster.forward_self_us", "us")
	add("cluster.repl_useful_ratio", "ratio")
	add("cluster.resyncs", "count")
	add("go.allocs_per_op", "count")
	add("go.bytes_per_op", "B")
	add("go.gc_cycles_per_kop", "count")
	add("harness.open_late_p99_us", "us")
	add("load.read_p99_us", "us")
	add("load.open_p50_us", "us")
	add("load.open_p99_us", "us")
	add("load.write_p50_us", "us")
	add("load.write_p99_us", "us")
	add("load.error_rate", "ratio")
	add("cluster.replica_lag_p50_us", "us")
	return out
}()

// percentile returns the nearest-rank q-quantile of xs in microseconds
// (0 for no samples). A failed op's failLat sample sorts last, so a
// percentile it reaches reads as missing every limit.
func percentile(xs []time.Duration, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return us(s[k])
}

// windowedPercentile is the better-quartile (see quartile) of each time
// window's q-quantile latency. A window must hold enough
// samples for the quantile to have ten beyond it, so sparse phases use
// fewer, longer windows (one at worst: the plain quantile).
func windowedPercentile(ss []sample, length time.Duration, q float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	need := int(math.Ceil(10 / (1 - q)))
	k := len(ss) / need
	if k > windows {
		k = windows
	}
	if k < 1 {
		k = 1
	}
	buckets := make([][]time.Duration, k)
	for _, s := range ss {
		w := int(int64(s.at) * int64(k) / int64(length))
		if w >= k {
			w = k - 1
		}
		if w < 0 {
			w = 0
		}
		buckets[w] = append(buckets[w], s.lat)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, percentile(b, q))
		}
	}
	return quartile(per, 1)
}

// closedThroughput is the closed loop's completed ops per second and
// process CPU per completed op, each the better quartile over the
// phase's windows. Ops completing after the phase ended are left out, as
// their CPU falls after the last reading.
func closedThroughput(l loop, ss []sample) (opsPerSec, cpuPerOp float64) {
	counts := make([]int, windows)
	for _, s := range ss {
		if s.lat == failLat || s.at >= l.length {
			continue
		}
		counts[int(int64(s.at)*windows/int64(l.length))]++
	}
	winSec := l.length.Seconds() / windows
	var rates, cpus []float64
	for w, n := range counts {
		rates = append(rates, float64(n)/winSec)
		if n > 0 {
			cpus = append(cpus, us(l.cpu[w+1]-l.cpu[w])/float64(n))
		}
	}
	return quartile(rates, 3), quartile(cpus, 1)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartile returns the k-th quartile (1 or 3) of xs by linear
// interpolation, the way Python's statistics.quantiles(xs, n=4) would.
// Windowed metrics report a run's better-quartile window: interference
// from other tenants of the host only slows a window down, so the better
// windows estimate what the code costs, and a change to the code moves
// every window.
func quartile(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := float64(k) * float64(len(s)+1) / 4
	i := int(pos)
	if i < 1 {
		return s[0]
	}
	if i >= len(s) {
		return s[len(s)-1]
	}
	return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// stamp is the environment every run's output carries.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Holdout    bool   `json:"holdout"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	GitRev     string `json:"rev"`
}

func newStamp(workload string, seed int64, holdout bool, seconds int, traced bool) stamp {
	return stamp{
		Workload: workload, Seed: seed, Holdout: holdout, Seconds: seconds, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), GoVersion: runtime.Version(), GitRev: gitRev(),
	}
}

// gitRev is the VCS revision the binary was built from, as the Go
// toolchain stamped it ("unknown" when built outside a repository).
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// printResult writes the stamp, one human-readable line per metric, and
// the result object as the last line.
func printResult(out io.Writer, st stamp, notes []string, names []struct{ name, unit string }, vals map[string]float64, res result) error {
	sb, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# env %s\n", sb)
	for _, n := range notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	res.Metrics = make(map[string]metric, len(names))
	for _, m := range names {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "%-36s %14.4f %s\n", m.name, v, m.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
