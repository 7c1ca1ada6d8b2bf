package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"currency/internal/api"
)

// serverCounters sums the counters every node exposes on GET /stats,
// GET /cluster/status and GET /metrics.
type serverCounters struct {
	stats   api.Stats
	cluster api.ClusterStats
	exact   float64 // currencyd_decisions_total{engine="exact"}
	ptime   float64 // currencyd_decisions_total{engine="ptime"}
}

// counters reads every node's counters through a fresh connection.
func (r *runner) counters() (serverCounters, error) {
	var sc serverCounters
	cn := r.t.dial()
	defer cn.close()
	for _, c := range cn.clients {
		st, err := clientStats(c)
		if err != nil {
			return sc, fmt.Errorf("reading /stats: %w", err)
		}
		s := &sc.stats
		s.CacheHits += st.CacheHits
		s.CacheMisses += st.CacheMisses
		s.CachePatched += st.CachePatched
		s.CacheRegrounded += st.CacheRegrounded
		s.RequestsShed += st.RequestsShed
		s.Degraded += st.Degraded
		s.QueryTimeouts += st.QueryTimeouts
		s.PatchConflicts += st.PatchConflicts
		s.Engine.Decisions += st.Engine.Decisions
		s.Engine.Propagations += st.Engine.Propagations
		s.Engine.Conflicts += st.Engine.Conflicts
		if r.t.ring != nil {
			cs, err := clientClusterStatus(c)
			if err != nil {
				return sc, fmt.Errorf("reading /cluster/status: %w", err)
			}
			sc.cluster.Forwarded += cs.Stats.Forwarded
			sc.cluster.ReplResyncs += cs.Stats.ReplResyncs
			sc.cluster.ReplicaDeltasApplied += cs.Stats.ReplicaDeltasApplied
		}
		text, err := clientMetrics(c)
		if err != nil {
			return sc, fmt.Errorf("reading /metrics: %w", err)
		}
		sc.exact += promValue(text, `currencyd_decisions_total{engine="exact"}`)
		sc.ptime += promValue(text, `currencyd_decisions_total{engine="ptime"}`)
	}
	return sc, nil
}

// promValue returns the sample of one series in a Prometheus text
// exposition (0 when absent).
func promValue(text, series string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// counterMetrics turns the counter deltas over the timed phases into
// per-layer metrics; ops is the number of operations attempted in them.
func counterMetrics(vals map[string]float64, b, a serverCounters, ops int) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	d := func(x, y uint64) float64 { return float64(y - x) }
	n := float64(ops)
	hits, misses := d(b.stats.CacheHits, a.stats.CacheHits), d(b.stats.CacheMisses, a.stats.CacheMisses)
	vals["server.cache.hit_ratio"] = ratio(hits, hits+misses)
	vals["server.cache.patched"] = d(b.stats.CachePatched, a.stats.CachePatched)
	vals["server.cache.regrounded"] = d(b.stats.CacheRegrounded, a.stats.CacheRegrounded)
	vals["server.shed"] = d(b.stats.RequestsShed, a.stats.RequestsShed)
	vals["server.degraded"] = d(b.stats.Degraded, a.stats.Degraded)
	vals["server.query_timeouts"] = d(b.stats.QueryTimeouts, a.stats.QueryTimeouts)
	vals["server.patch_conflicts"] = d(b.stats.PatchConflicts, a.stats.PatchConflicts)
	ptime, exact := a.ptime-b.ptime, a.exact-b.exact
	vals["server.route.ptime_share"] = ratio(ptime, ptime+exact)
	vals["osolve.decisions_per_op"] = ratio(d(b.stats.Engine.Decisions, a.stats.Engine.Decisions), n)
	vals["osolve.propagations_per_op"] = ratio(d(b.stats.Engine.Propagations, a.stats.Engine.Propagations), n)
	vals["osolve.conflicts_per_op"] = ratio(d(b.stats.Engine.Conflicts, a.stats.Engine.Conflicts), n)
	vals["cluster.forwarded_share"] = ratio(d(b.cluster.Forwarded, a.cluster.Forwarded), n)
	deltas := d(b.cluster.ReplicaDeltasApplied, a.cluster.ReplicaDeltasApplied)
	resyncs := d(b.cluster.ReplResyncs, a.cluster.ReplResyncs)
	vals["cluster.repl_useful_ratio"] = ratio(deltas, deltas+resyncs)
	vals["cluster.resyncs"] = resyncs
}
