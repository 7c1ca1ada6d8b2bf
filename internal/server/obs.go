package server

// Server-side observability: the metric families exposed at GET
// /metrics (Prometheus text format), the per-request tracing middleware
// that feeds GET /debug/traces, and the structured request log. See
// internal/obs for the primitives.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"currency/internal/api"
	"currency/internal/obs"
	"currency/internal/osolve"
)

// endpointLabels are the instrumented endpoints, the label values of
// currencyd_requests_total / currencyd_request_duration_seconds.
// /metrics, /debug/traces and /healthz are deliberately uninstrumented:
// scrapes must not inflate the request counters they report.
var endpointLabels = []string{
	"register", "list_specs", "get_spec", "patch_spec", "delete_spec",
	string(api.OpConsistent), string(api.OpCertainOrder), string(api.OpDeterministic),
	string(api.OpCertainAnswers), string(api.OpCurrencyPreserving), string(api.OpBoundedCopying),
	"batch", "stats", "replicate", "cluster_status", "cluster_batch",
}

// opLabels label the decision histogram.
var opLabels = []string{
	string(api.OpConsistent), string(api.OpCertainOrder), string(api.OpDeterministic),
	string(api.OpCertainAnswers), string(api.OpCurrencyPreserving), string(api.OpBoundedCopying),
}

// Patch-pipeline stage labels: delta_apply is the spec-level COW delta,
// applied once per patch (timed by the engine inside osolve.ApplyDelta
// when a cached predecessor is patched, by the server otherwise); remap
// the rest of the incremental engine patch; reground the from-scratch
// grounding — no cached predecessor, or the engine's full-rebuild
// fallback.
const (
	stageDeltaApply = "delta_apply"
	stageRemap      = "remap"
	stageReground   = "reground"
)

var stageLabels = []string{stageDeltaApply, stageRemap, stageReground}

// serverMetrics bundles every metric family the server records, plus
// the shared engine-counter sink all cached solvers flush into.
type serverMetrics struct {
	registry *obs.Registry

	requests *obs.CounterVec   // by endpoint
	reqDur   *obs.HistogramVec // by endpoint
	decDur   *obs.HistogramVec // by decision problem
	decided  *obs.CounterVec   // by engine (exact / ptime)
	patchDur *obs.HistogramVec // by patch stage

	slow         obs.Counter
	droppedRules obs.Counter

	// The overload-survival counters: requests shed by the admission
	// queue, exact decisions interrupted by a deadline, decisions
	// answered by the relaxed PTIME fallback, handler panics converted
	// to 500s, and PATCH version conflicts (guarded rejections plus
	// unguarded retry rounds).
	shed           obs.Counter
	timeouts       obs.Counter
	degraded       obs.Counter
	panics         obs.Counter
	patchConflicts obs.Counter

	// Cluster-layer counters (all zero on a single-node server).
	// Forwarding: requests proxied to a spec's owner, and failed proxies.
	forwarded     obs.Counter
	forwardErrors obs.Counter
	// Owner-side replication: acknowledged delta and full frames, failed
	// sends, and NACK-triggered re-syncs.
	replDeltas  obs.Counter
	replFulls   obs.Counter
	replErrors  obs.Counter
	replResyncs obs.Counter
	// Follower-side replication: frames applied incrementally vs
	// installed from full source, and version-gap NACKs returned.
	replicaDeltas obs.Counter
	replicaFulls  obs.Counter
	replicaNacks  obs.Counter
	// replLag measures owner-side enqueue-to-ack latency per frame.
	replLag *obs.NamedHistogram

	// engine is the process-wide osolve counter sink: every reasoner
	// the server grounds or patches flushes its search effort here, so
	// the exported counters are monotonic across cache evictions.
	engine osolve.EngineStats
}

// newServerMetrics builds the families and registers them, with the
// cache/registry gauges closing over the server.
func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{
		registry: obs.NewRegistry(),
		requests: obs.NewCounterVec("currencyd_requests_total",
			"Requests served, by endpoint.", "endpoint", endpointLabels),
		reqDur: obs.NewHistogramVec("currencyd_request_duration_seconds",
			"End-to-end request latency, by endpoint.", "endpoint", endpointLabels, nil),
		decDur: obs.NewHistogramVec("currencyd_decision_duration_seconds",
			"Decision-problem latency, by problem.", "op", opLabels, nil),
		decided: obs.NewCounterVec("currencyd_decisions_total",
			"Decisions answered, by engine (exact or ptime).", "engine",
			[]string{api.EngineExact, api.EnginePTime}),
		patchDur: obs.NewHistogramVec("currencyd_patch_stage_duration_seconds",
			"Patch-pipeline stage latency: delta_apply (the one spec COW apply per patch, timed inside the engine when a cached predecessor is patched), remap (incremental engine patch, apply excluded), reground (from-scratch grounding: no cached predecessor, or the engine's full-rebuild fallback).",
			"stage", stageLabels, nil),
		replLag: obs.NewNamedHistogram("currencyd_replication_lag_seconds",
			"Owner-side replication lag: frame enqueue to follower ack.", nil),
	}
	m.registry.Register(m.requests, m.reqDur, m.decDur, m.decided, m.patchDur,
		obs.NewCounterFunc("currencyd_slow_requests_total",
			"Requests over the slow-query threshold.", m.slow.Load),
		obs.NewCounterFunc("currencyd_patch_dropped_rules_total",
			"Ground rules dropped by delete remaps because their tuples were deleted.",
			m.droppedRules.Load),
		obs.NewCounterFunc("currencyd_requests_shed_total",
			"Requests rejected 429 because the admission queue was full.", m.shed.Load),
		obs.NewCounterFunc("currencyd_query_timeouts_total",
			"Exact decisions interrupted by a deadline before a verdict.", m.timeouts.Load),
		obs.NewCounterFunc("currencyd_degraded_total",
			"Decisions answered by the constraint-relaxed PTIME fallback.", m.degraded.Load),
		obs.NewCounterFunc("currencyd_panics_total",
			"Handler panics recovered into 500 responses.", m.panics.Load),
		obs.NewCounterFunc("currencyd_patch_conflicts_total",
			"PATCH version conflicts: guarded rejections and unguarded retry rounds.",
			m.patchConflicts.Load),
		// Cluster forwarding and replication counters.
		obs.NewCounterFunc("currencyd_cluster_forwarded_total",
			"Requests proxied to a spec's owner node.", m.forwarded.Load),
		obs.NewCounterFunc("currencyd_cluster_forward_errors_total",
			"Forward proxies that failed (owner unreachable or deadline expired).",
			m.forwardErrors.Load),
		obs.NewCounterFunc("currencyd_replication_deltas_sent_total",
			"Delta replication frames acknowledged by followers.", m.replDeltas.Load),
		obs.NewCounterFunc("currencyd_replication_fulls_sent_total",
			"Full replication frames acknowledged by followers.", m.replFulls.Load),
		obs.NewCounterFunc("currencyd_replication_errors_total",
			"Replication sends that failed (follower unreachable or rejecting).",
			m.replErrors.Load),
		obs.NewCounterFunc("currencyd_replication_resyncs_total",
			"Full re-syncs triggered by follower version-gap NACKs.", m.replResyncs.Load),
		obs.NewCounterFunc("currencyd_replica_deltas_applied_total",
			"Replication frames applied through the incremental delta path.",
			m.replicaDeltas.Load),
		obs.NewCounterFunc("currencyd_replica_fulls_applied_total",
			"Replication frames installed from full canonical source.",
			m.replicaFulls.Load),
		obs.NewCounterFunc("currencyd_replica_nacks_total",
			"Version-gap NACKs returned to owners.", m.replicaNacks.Load),
		m.replLag,
		// Engine search-effort counters, from the shared sink.
		obs.NewCounterFunc("currencyd_engine_decisions_total",
			"DPLL branching points across all engine searches.", m.engine.Decisions.Load),
		obs.NewCounterFunc("currencyd_engine_propagations_total",
			"Literals set by engine propagation (transitive closure and rule firing).", m.engine.Propagations.Load),
		obs.NewCounterFunc("currencyd_engine_conflicts_total",
			"Engine propagation conflicts (rule violations and order cycles).", m.engine.Conflicts.Load),
		obs.NewCounterFunc("currencyd_engine_searches_total",
			"Component search entries.", m.engine.Searches.Load),
		obs.NewCounterFunc("currencyd_engine_scoped_clone_bytes_total",
			"Bytes copied building per-query search states.", m.engine.ScopedCloneBytes.Load),
		obs.NewCounterFunc("currencyd_engine_pool_hits_total",
			"Pooled-state fetches that reused a warm arena.", m.engine.PoolHits.Load),
		obs.NewCounterFunc("currencyd_engine_pool_misses_total",
			"Pooled-state fetches that had to allocate an arena.", m.engine.PoolMisses.Load),
		obs.NewCounterFunc("currencyd_engine_memo_hits_total",
			"Queries answered from memoized component base verdicts.", m.engine.MemoHits.Load),
		obs.NewCounterFunc("currencyd_engine_learned_clauses_total",
			"First-UIP clauses learned by escalated CDCL searches.", m.engine.LearnedClauses.Load),
		obs.NewCounterFunc("currencyd_engine_backjumps_total",
			"Non-chronological backjumps by escalated CDCL searches.", m.engine.Backjumps.Load),
		obs.NewCounterFunc("currencyd_engine_restarts_total",
			"Luby restarts by escalated CDCL searches.", m.engine.Restarts.Load),
		// Cache and registry counters/gauges, reading the existing atomics.
		obs.NewCounterFunc("currencyd_cache_hits_total",
			"Reasoner-cache hits.", s.cache.hits.Load),
		obs.NewCounterFunc("currencyd_cache_misses_total",
			"Reasoner-cache misses.", s.cache.misses.Load),
		obs.NewCounterFunc("currencyd_cache_patched_total",
			"Spec updates absorbed by incremental engine patching.", s.cache.patched.Load),
		obs.NewCounterFunc("currencyd_cache_regrounded_total",
			"Spec updates that re-grounded from scratch.", s.cache.regrounded.Load),
		obs.NewGaugeFunc("currencyd_cache_entries",
			"Grounded reasoners currently cached.", func() float64 {
				entries, _, _, _, _, _ := s.cache.Stats()
				return float64(entries)
			}),
		obs.NewGaugeFunc("currencyd_cache_capacity",
			"Reasoner-cache capacity.", func() float64 { return float64(s.cache.cap) }),
		obs.NewGaugeFunc("currencyd_specs",
			"Specifications currently registered.", func() float64 { return float64(s.registry.Len()) }),
		obs.NewGaugeFunc("currencyd_workers",
			"Batch / engine worker-pool bound.", func() float64 { return float64(s.workers) }),
	)
	return m
}

// statusWriter captures the response status for the request log and
// trace record.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

// instrument wraps a handler with the observability and protection
// middleware: it assigns a trace ID (returned in the X-Currencyd-Trace
// header and propagated through the request context into the reasoning
// layers), applies the endpoint class's deadline and the admission gate
// (shedding with 429 + Retry-After when the queue is full), converts
// handler panics into 500s with the stack attached to the trace,
// records the endpoint's latency histogram and request counter, offers
// the finished trace to the slow log, and emits the structured request
// log line (every request when a log writer is configured; slow ones
// are additionally counted and always logged).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	class := opClass(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(endpoint)
		w.Header().Set(api.TraceHeader, tr.ID)
		sw := &statusWriter{ResponseWriter: w}
		// The accounting runs deferred so shed, panicking and normal
		// requests all land in the same counters and histograms.
		defer func() {
			if rec := recover(); rec != nil {
				s.recoverPanic(sw, tr, rec)
			}
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			d := tr.Finish(status)
			s.metrics.requests.With(endpoint).Inc()
			s.metrics.reqDur.With(endpoint).Observe(d)
			slow := s.slowQuery > 0 && d >= s.slowQuery
			if slow {
				s.metrics.slow.Inc()
			}
			s.traces.Add(tr)
			if s.reqLog != nil || slow {
				s.logRequest(tr, r, status, d, slow)
			}
		}()
		ctx := r.Context()
		if deadline := s.deadlineFor(class); deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		if class != classRead {
			release, verdict := s.admit.acquire(ctx)
			switch verdict {
			case shedBusy:
				s.metrics.shed.Inc()
				sw.Header().Set("Retry-After", s.retryAfterSecs())
				writeError(sw, http.StatusTooManyRequests,
					"server saturated: admission queue full, retry later")
				return
			case shedExpired:
				sw.Header().Set("Retry-After", s.retryAfterSecs())
				writeError(sw, http.StatusServiceUnavailable,
					"request deadline expired in admission queue")
				return
			}
			defer release()
		}
		h(sw, r.WithContext(obs.With(ctx, tr)))
	}
}

// retryAfterSecs estimates how long a shed client should back off: the
// expected drain time of the work already ahead of it. The estimate is
// (inflight + queued + 1 requests) × the observed mean latency of the
// gated (non-read) endpoints, spread over the admission parallelism,
// rounded up to whole seconds and clamped to [1, 30] — so an idle or
// freshly started server still answers the floor of 1 second, and a
// deeply backed-up one never tells clients to vanish for minutes.
func (s *Server) retryAfterSecs() string {
	var n uint64
	var sum time.Duration
	for _, l := range endpointLabels {
		if opClass(l) == classRead {
			continue
		}
		h := s.metrics.reqDur.With(l)
		n += h.Count()
		sum += h.Sum()
	}
	secs := int64(1)
	if n > 0 && s.maxInflight > 0 {
		mean := sum / time.Duration(n)
		busy, queued := s.admit.depth()
		est := time.Duration(busy+queued+1) * mean / time.Duration(s.maxInflight)
		secs = int64((est + time.Second - 1) / time.Second)
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.FormatInt(secs, 10)
}

// recoverPanic converts a handler panic into a 500 with the stack
// attached to the request trace — an adversarial spec or engine bug
// must cost one request, not the process. Runs inside instrument's
// deferred accounting, so the panicking request still lands in the
// latency and request counters.
func (s *Server) recoverPanic(w *statusWriter, tr *obs.Trace, rec any) {
	s.metrics.panics.Inc()
	stack := debug.Stack()
	if len(stack) > 8<<10 {
		stack = stack[:8<<10]
	}
	tr.AddSpan("panic", time.Now(), fmt.Sprintf("%v\n%s", rec, stack))
	if w.status == 0 {
		writeError(w, http.StatusInternalServerError, "internal error: %v", rec)
	}
}

// requestLogLine is the one-line JSON request log record.
type requestLogLine struct {
	TS       string         `json:"ts"`
	Trace    string         `json:"trace"`
	Endpoint string         `json:"endpoint"`
	Method   string         `json:"method"`
	Path     string         `json:"path"`
	Status   int            `json:"status"`
	DurUS    int64          `json:"durUs"`
	Slow     bool           `json:"slow,omitempty"`
	Spans    []api.SpanInfo `json:"spans,omitempty"`
}

// logRequest writes one JSON line to the configured writer (stderr via
// the default logger when only the slow-query path fired).
func (s *Server) logRequest(tr *obs.Trace, r *http.Request, status int, d time.Duration, slow bool) {
	line := requestLogLine{
		TS:       time.Now().UTC().Format(time.RFC3339Nano),
		Trace:    tr.ID,
		Endpoint: tr.Name,
		Method:   r.Method,
		Path:     r.URL.Path,
		Status:   status,
		DurUS:    d.Microseconds(),
		Slow:     slow,
		Spans:    wireSpans(tr),
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	w := s.reqLog
	if w == nil {
		w = slowFallbackWriter
	}
	buf = append(buf, '\n')
	_, _ = w.Write(buf)
}

// slowFallbackWriter receives slow-query log lines when no request log
// writer is configured: the standard logger, so the line lands wherever
// currencyd's logging goes.
var slowFallbackWriter io.Writer = logWriter{}

type logWriter struct{}

func (logWriter) Write(p []byte) (int, error) {
	log.Print(string(p)) // log.Print adds no second newline when p has one
	return len(p), nil
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	s.metrics.registry.WriteProm(w)
}

// handleTraces serves the slowest recorded request traces.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	slowest := s.traces.Slowest()
	list := api.TraceList{Traces: make([]api.TraceInfo, 0, len(slowest))}
	for _, tr := range slowest {
		list.Traces = append(list.Traces, api.TraceInfo{
			ID:       tr.ID,
			Endpoint: tr.Name,
			Start:    tr.Start.UTC().Format(time.RFC3339Nano),
			DurNS:    tr.Duration().Nanoseconds(),
			Status:   tr.Status(),
			Spans:    wireSpans(tr),
		})
	}
	writeJSON(w, http.StatusOK, list)
}

func wireSpans(tr *obs.Trace) []api.SpanInfo {
	spans := tr.Spans()
	out := make([]api.SpanInfo, len(spans))
	for i, sp := range spans {
		out[i] = api.SpanInfo{
			Name:     sp.Name,
			OffsetNS: sp.Offset.Nanoseconds(),
			DurNS:    sp.Dur.Nanoseconds(),
			Detail:   sp.Detail,
		}
	}
	return out
}
