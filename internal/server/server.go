// Package server implements currencyd: a long-running HTTP/JSON service
// answering the decision problems of "Determining the Currency of Data"
// (Fan, Geerts, Wijsen; PODS 2011) against a registry of specifications.
//
// The server keeps a versioned spec registry (the textual format of
// internal/parse is the wire format) and an LRU cache of grounded
// core.Reasoners keyed by (spec id, version), so repeated queries against
// a registered spec skip the expensive constraint-grounding step. Updating
// a spec bumps its version, which changes the cache key — in-flight
// requests finish against the version they resolved, new requests ground
// the new one. An auto-routing layer sends constraint-free specifications
// (and SP queries, where it matters) to the Section-6 PTIME algorithms of
// internal/tractable and everything else to the exact reasoner. Cached
// reasoners run the decomposed engine of internal/osolve, so repeated
// scoped decisions (certain-order pairs, per-relation determinism)
// against a registered spec search only the component they touch; the
// Workers option bounds both batch fan-out and the engine's
// component-level parallelism.
//
// Endpoints:
//
//	POST   /specs                          register (or update) a spec
//	GET    /specs                          list registered specs
//	GET    /specs/{id}                     fetch one spec (canonical source)
//	PATCH  /specs/{id}                     apply an incremental delta
//	DELETE /specs/{id}                     delete a spec
//	POST   /specs/{id}/consistent          CPS
//	POST   /specs/{id}/certain-order       COP
//	POST   /specs/{id}/deterministic       DCIP
//	POST   /specs/{id}/certain-answers     CCQA
//	POST   /specs/{id}/currency-preserving CPP
//	POST   /specs/{id}/bounded-copying     BCP
//	POST   /specs/{id}/batch               fan a list of decisions over the pool
//	GET    /stats                          registry/cache/pool/engine counters
//	GET    /metrics                        Prometheus text exposition
//	GET    /debug/traces                   slowest request traces, with spans
//	GET    /healthz                        liveness
//
// Every endpoint except /metrics, /debug/traces and /healthz runs under
// the observability middleware (see obs.go): per-request trace IDs
// returned in the X-Currencyd-Trace header, endpoint latency
// histograms, a slow-request log, and optional one-line JSON request
// logging.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"currency/internal/api"
	"currency/internal/chaos"
	"currency/internal/core"
	"currency/internal/obs"
	"currency/internal/parse"
	"currency/internal/spec"
)

// Options configures a Server.
type Options struct {
	// CacheSize caps the reasoner LRU. 0 means DefaultCacheSize; a
	// negative value disables caching (every exact decision re-grounds).
	CacheSize int
	// Workers bounds batch-request concurrency. Default GOMAXPROCS.
	Workers int
	// SlowQuery is the latency threshold over which a request is counted
	// (currencyd_slow_requests_total) and logged even without a request
	// log. 0 means DefaultSlowQuery; negative disables slow marking.
	SlowQuery time.Duration
	// RequestLog, when non-nil, receives one JSON line per instrumented
	// request. Writes are serialized by the server.
	RequestLog io.Writer
	// TraceBuffer caps how many slowest traces /debug/traces keeps.
	// 0 means 32.
	TraceBuffer int
	// QueryDeadline bounds each decision request (single-decision
	// endpoints, batch envelopes, and programmatic Decide calls): the
	// request context expires after this long, interrupting in-flight
	// engine searches (see the Indeterminate/Degraded result fields). 0
	// means DefaultQueryDeadline; negative disables the bound.
	QueryDeadline time.Duration
	// WriteDeadline bounds the write endpoints (register, patch,
	// delete), whose cost is grounding rather than search. 0 means
	// DefaultWriteDeadline; negative disables the bound.
	WriteDeadline time.Duration
	// MaxInflight bounds concurrently executing query- and write-class
	// requests; excess requests wait in a bounded queue and are shed
	// with 429 + Retry-After once it fills. 0 means
	// DefaultMaxInflightFactor × Workers; negative disables admission
	// control entirely.
	MaxInflight int
	// MaxQueue bounds the admission wait queue. 0 means
	// DefaultMaxQueueFactor × MaxInflight; negative means no queue
	// (immediate shed when every slot is busy).
	MaxQueue int
	// Cluster, when non-nil, makes this server one node of a currencyd
	// ring: spec ownership is sharded by rendezvous hash, misrouted
	// requests are forwarded to their owner, and writes are replicated
	// to follower nodes (see cluster.go). Invalid cluster options make
	// New panic — validate membership with cluster.New first when the
	// configuration comes from user input.
	Cluster *ClusterOptions
}

// Server is the currencyd HTTP service. Create with New and mount
// Handler; all methods are safe for concurrent use.
type Server struct {
	registry *Registry
	cache    *ReasonerCache
	workers  int
	mux      *http.ServeMux

	metrics   *serverMetrics
	traces    *obs.SlowLog
	slowQuery time.Duration
	reqLog    io.Writer
	logMu     sync.Mutex

	admit         *admission
	maxInflight   int
	queryDeadline time.Duration
	writeDeadline time.Duration
	cluster       *clusterState
	// draining flips at BeginShutdown: /readyz turns not-ready so load
	// balancers stop sending traffic while in-flight requests finish.
	draining atomic.Bool
}

// DefaultCacheSize is the reasoner-cache capacity used when
// Options.CacheSize is left zero.
const DefaultCacheSize = 64

// DefaultSlowQuery is the slow-request threshold used when
// Options.SlowQuery is left zero.
const DefaultSlowQuery = 250 * time.Millisecond

// DefaultQueryDeadline bounds decision requests when
// Options.QueryDeadline is left zero. Generous: the engine's own warm
// path answers in microseconds; this is the backstop against adversarial
// specs pinning a worker (the paper's hardness gadgets).
const DefaultQueryDeadline = 30 * time.Second

// DefaultWriteDeadline bounds register/patch/delete requests when
// Options.WriteDeadline is left zero.
const DefaultWriteDeadline = time.Minute

// Admission-control defaults, as factors of Workers (MaxInflight) and
// MaxInflight (MaxQueue).
const (
	DefaultMaxInflightFactor = 4
	DefaultMaxQueueFactor    = 4
)

// New builds a server with the given options.
func New(opts Options) *Server {
	if opts.CacheSize == 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.CacheSize < 0 {
		opts.CacheSize = 0 // explicit "disable caching"
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.SlowQuery == 0 {
		opts.SlowQuery = DefaultSlowQuery
	}
	if opts.SlowQuery < 0 {
		opts.SlowQuery = 0 // explicit "never mark slow"
	}
	if opts.QueryDeadline == 0 {
		opts.QueryDeadline = DefaultQueryDeadline
	}
	if opts.QueryDeadline < 0 {
		opts.QueryDeadline = 0 // explicit "no deadline"
	}
	if opts.WriteDeadline == 0 {
		opts.WriteDeadline = DefaultWriteDeadline
	}
	if opts.WriteDeadline < 0 {
		opts.WriteDeadline = 0
	}
	if opts.MaxInflight == 0 {
		opts.MaxInflight = DefaultMaxInflightFactor * opts.Workers
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = DefaultMaxQueueFactor * opts.MaxInflight
	}
	if opts.MaxQueue < 0 {
		opts.MaxQueue = 0 // explicit "no wait queue"
	}
	s := &Server{
		registry:      NewRegistry(),
		cache:         NewReasonerCache(opts.CacheSize),
		workers:       opts.Workers,
		mux:           http.NewServeMux(),
		traces:        obs.NewSlowLog(opts.TraceBuffer),
		slowQuery:     opts.SlowQuery,
		reqLog:        opts.RequestLog,
		queryDeadline: opts.QueryDeadline,
		writeDeadline: opts.WriteDeadline,
	}
	if opts.MaxInflight > 0 {
		s.admit = newAdmission(opts.MaxInflight, opts.MaxQueue)
		s.maxInflight = opts.MaxInflight
	}
	s.metrics = newServerMetrics(s)
	if opts.Cluster != nil {
		cs, err := newClusterState(s, opts.Cluster)
		if err != nil {
			panic(fmt.Sprintf("server: invalid cluster options: %v", err))
		}
		s.cluster = cs
	}
	s.mux.HandleFunc("POST /specs", s.instrument("register", s.handleRegister))
	s.mux.HandleFunc("GET /specs", s.instrument("list_specs", s.handleList))
	s.mux.HandleFunc("GET /specs/{id}", s.instrument("get_spec", s.handleGet))
	s.mux.HandleFunc("PATCH /specs/{id}", s.instrument("patch_spec", s.handlePatch))
	s.mux.HandleFunc("DELETE /specs/{id}", s.instrument("delete_spec", s.handleDelete))
	for _, op := range []api.Op{
		api.OpConsistent, api.OpCertainOrder, api.OpDeterministic,
		api.OpCertainAnswers, api.OpCurrencyPreserving, api.OpBoundedCopying,
	} {
		op := op
		s.mux.HandleFunc("POST /specs/{id}/"+string(op),
			s.instrument(string(op), func(w http.ResponseWriter, r *http.Request) {
				s.handleDecision(w, r, op)
			}))
	}
	s.mux.HandleFunc("POST /specs/{id}/batch", s.instrument("batch", s.handleBatch))
	// Cluster endpoints. Always mounted: status and replicate answer 404
	// on a non-member, and a cluster batch against a single node runs
	// every request locally.
	s.mux.HandleFunc("GET /cluster/status", s.instrument("cluster_status", s.handleClusterStatus))
	s.mux.HandleFunc("POST /cluster/replicate", s.instrument("replicate", s.handleReplicate))
	s.mux.HandleFunc("POST /cluster/batch", s.instrument("cluster_batch", s.handleClusterBatch))
	s.mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	// Liveness: the process is up and serving. Never reflects load — a
	// saturated server must not be restarted by its orchestrator.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	// Readiness: whether the server wants new traffic. Not-ready while
	// shutdown is draining or the admission queue is saturated (new
	// expensive requests would be shed).
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case s.admit.saturated():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "saturated")
	default:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	}
}

// BeginShutdown marks the server draining: /readyz answers 503 so load
// balancers route new traffic elsewhere, while already-accepted requests
// keep being served. Call before http.Server.Shutdown, which then waits
// out the in-flight requests.
func (s *Server) BeginShutdown() { s.draining.Store(true) }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Endpoint classes: read-class endpoints are cheap and never gated;
// query-class ones run engine searches under QueryDeadline; write-class
// ones ground/patch specs under WriteDeadline. Query and write classes
// share the admission gate.
const (
	classRead = iota
	classQuery
	classWrite
)

func opClass(endpoint string) int {
	switch endpoint {
	case "register", "patch_spec", "delete_spec":
		return classWrite
	case "list_specs", "get_spec", "stats", "cluster_status", "replicate":
		return classRead
	}
	return classQuery // the decision endpoints and batches
}

func (s *Server) deadlineFor(class int) time.Duration {
	switch class {
	case classQuery:
		return s.queryDeadline
	case classWrite:
		return s.writeDeadline
	}
	return 0
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.Error{Error: fmt.Sprintf(format, args...)})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// entryFor resolves the {id} path value, writing the 404 itself.
func (s *Server) entryFor(w http.ResponseWriter, r *http.Request) (*Entry, bool) {
	id := r.PathValue("id")
	e, ok := s.registry.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no spec %q", id)
		return nil, false
	}
	return e, true
}

func specInfo(e *Entry, withSource bool) api.SpecInfo {
	info := api.SpecInfo{
		ID:      e.ID,
		Version: e.Version,
		Summary: summarize(e.File.Spec),
	}
	for _, q := range e.File.Queries {
		info.Queries = append(info.Queries, q.Name)
	}
	if withSource {
		info.Source = e.Source()
	}
	return info
}

func summarize(s *spec.Spec) string {
	tuples := 0
	for _, r := range s.Relations {
		tuples += r.Len()
	}
	return fmt.Sprintf("%d relations, %d tuples, %d denial constraints, %d copy functions",
		len(s.Relations), tuples, len(s.Constraints), len(s.Copies))
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "register needs a source specification")
		return
	}
	// Cluster routing: an empty ID is assigned here (cluster-unique, so
	// ownership is computable before registration), then the request is
	// forwarded to the spec's owner unless this node is it.
	if cs := s.cluster; cs != nil && r.Header.Get(api.ForwardHeader) == "" {
		if req.ID == "" {
			req.ID = cs.assignID()
		}
		if !cs.ring.IsOwner(req.ID, cs.self.ID) {
			cs.forwardJSON(w, r, cs.ring.Owner(req.ID), &req)
			return
		}
	}
	e, err := s.register(req.ID, req.Source)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	status := http.StatusCreated
	if e.Version > 1 {
		status = http.StatusOK
	}
	writeJSON(w, status, specInfo(e, false))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	list := api.SpecList{Specs: []api.SpecInfo{}}
	for _, e := range s.registry.List() {
		list.Specs = append(list.Specs, specInfo(e, false))
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if s.forwardSpec(w, r, r.PathValue("id"), false) {
		return
	}
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, specInfo(e, true))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.forwardSpec(w, r, id, true) {
		return
	}
	if !s.registry.Delete(id) {
		writeError(w, http.StatusNotFound, "no spec %q", id)
		return
	}
	s.cache.InvalidateSpec(id)
	if s.cluster != nil {
		s.cluster.replicateDelete(id)
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDecision serves the single-decision endpoints. The op comes from
// the route; a body is optional for parameterless problems.
func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request, op api.Op) {
	if s.forwardSpec(w, r, r.PathValue("id"), false) {
		return
	}
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	req := api.DecisionRequest{}
	if r.ContentLength != 0 {
		if !readJSON(w, r, &req) {
			return
		}
	}
	if req.Op != "" && req.Op != op {
		writeError(w, http.StatusBadRequest, "request op %q does not match endpoint %q", req.Op, op)
		return
	}
	req.Op = op
	chaos.DecidePanic.Hit()
	res := s.decide(r.Context(), e, &req)
	if res.Error != "" {
		writeJSON(w, http.StatusUnprocessableEntity, res)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleBatch fans the request list across the worker pool; results keep
// request order, and per-request failures are reported in-line so one bad
// request cannot fail the envelope.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.forwardSpec(w, r, r.PathValue("id"), false) {
		return
	}
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	var req api.BatchRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "batch needs at least one request")
		return
	}
	writeJSON(w, http.StatusOK, api.BatchResponse{Results: s.runBatch(r.Context(), e, req.Requests)})
}

// runBatch executes the requests over a bounded worker pool. Every request
// in a batch runs against the same registry entry — a concurrent update
// changes the version for future lookups, not for this batch. The ctx
// trace (if any) is shared by all workers; Trace.AddSpan is
// concurrency-safe, so a traced batch records one span per decision.
func (s *Server) runBatch(ctx context.Context, e *Entry, reqs []api.DecisionRequest) []api.DecisionResult {
	results := make([]api.DecisionResult, len(reqs))
	workers := s.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = s.decide(ctx, e, &reqs[i])
			}
		}()
	}
	for i := range reqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	entries, capacity, hits, misses, patched, regrounded := s.cache.Stats()
	ec := s.metrics.engine.Counters()
	writeJSON(w, http.StatusOK, api.Stats{
		Specs:           s.registry.Len(),
		CacheEntries:    entries,
		CacheCapacity:   capacity,
		CacheHits:       hits,
		CacheMisses:     misses,
		CachePatched:    patched,
		CacheRegrounded: regrounded,
		Workers:         s.workers,
		// Requests excludes this in-flight /stats call: the middleware
		// counts a request after its handler returns.
		Requests:          s.metrics.requests.Sum(),
		SlowRequests:      s.metrics.slow.Load(),
		RequestsShed:      s.metrics.shed.Load(),
		QueryTimeouts:     s.metrics.timeouts.Load(),
		Degraded:          s.metrics.degraded.Load(),
		Panics:            s.metrics.panics.Load(),
		PatchConflicts:    s.metrics.patchConflicts.Load(),
		PatchDroppedRules: s.metrics.droppedRules.Load(),
		Engine: api.EngineCounters{
			Decisions:        ec.Decisions,
			Propagations:     ec.Propagations,
			Conflicts:        ec.Conflicts,
			Searches:         ec.Searches,
			ScopedCloneBytes: ec.ScopedCloneBytes,
			PoolHits:         ec.PoolHits,
			PoolMisses:       ec.PoolMisses,
			MemoHits:         ec.MemoHits,
		},
		Cluster: s.clusterStats(),
	})
}

// handlePatch applies an incremental delta to a registered spec: the
// registry publishes the patched entry under a bumped version, and the
// reasoner cache absorbs the change by patching the cached grounded
// reasoner (when one exists) instead of evicting it.
func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.forwardSpec(w, r, id, true) {
		return
	}
	var req api.DeltaRequest
	if !readJSON(w, r, &req) {
		return
	}
	ne, info, err := s.patchCurrent(r.Context(), id, &req)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, ErrVersionConflict) {
			status = http.StatusConflict
		}
		if ne == nil && !errors.Is(err, ErrVersionConflict) {
			if _, ok := s.registry.Get(id); !ok {
				status = http.StatusNotFound
			}
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.PatchResult{SpecInfo: specInfo(ne, false), Patch: info})
}

// maxPatchRetries caps how often an unguarded patch retries after
// losing the registry race to a concurrent update. The cap turns a
// potential livelock under sustained contention into a 409 the client's
// backoff can spread out; every lost race is counted in
// currencyd_patch_conflicts_total.
const maxPatchRetries = 3

// patchCurrent resolves the current entry and applies the delta. A
// version conflict is surfaced only to guarded requests (BaseVersion
// set); unguarded patches losing a registry race retry against the new
// current version — the caller asked for "apply to whatever is
// current", not for optimistic concurrency — but only maxPatchRetries
// times before giving the contention back to the caller as a 409.
func (s *Server) patchCurrent(ctx context.Context, id string, req *api.DeltaRequest) (*Entry, api.PatchInfo, error) {
	for attempt := 0; ; attempt++ {
		e, ok := s.registry.Get(id)
		if !ok {
			return nil, api.PatchInfo{}, fmt.Errorf("no spec %q", id)
		}
		if req.BaseVersion != 0 && req.BaseVersion != e.Version {
			s.metrics.patchConflicts.Inc()
			return nil, api.PatchInfo{}, fmt.Errorf("%w: spec %q is at version %d, patch based on %d",
				ErrVersionConflict, id, e.Version, req.BaseVersion)
		}
		chaos.PatchStall.Hit()
		ne, info, err := s.patch(ctx, e, req)
		if err != nil && errors.Is(err, ErrVersionConflict) {
			s.metrics.patchConflicts.Inc()
		}
		if err == nil && s.cluster != nil {
			s.cluster.replicateDelta(ne, req)
		}
		if err == nil || req.BaseVersion != 0 || !errors.Is(err, ErrVersionConflict) || attempt >= maxPatchRetries {
			return ne, info, err
		}
	}
}

// patch applies a resolved wire delta as the spec's owner, publishing
// the next version, and reports how the cache absorbed it.
func (s *Server) patch(ctx context.Context, e *Entry, req *api.DeltaRequest) (*Entry, api.PatchInfo, error) {
	ne, nr, err := s.applyDelta(ctx, e, req, "patch", e.Version+1)
	if err != nil {
		return nil, api.PatchInfo{}, err
	}
	info := api.PatchInfo{}
	if stats, ok := nr.Engine().PatchStats(); ok && !stats.FullRebuild {
		info.Patched = true
		info.ReusedComps = stats.ReusedComps
		info.RebuiltComps = stats.RebuiltComps
		info.CopiedRules = stats.CopiedRules
		info.RegroundRules = stats.RegroundRules
		info.DroppedRules = stats.DroppedRules
		s.metrics.droppedRules.Add(uint64(stats.DroppedRules))
	}
	return ne, info, nil
}

// applyDelta is the patch pipeline shared by a spec's owner and its
// followers. The successor reasoner is built first (patching the cached
// grounded predecessor when one exists), and only on success does the
// registry publish it at version and the cache install it — a failed
// delta leaves every layer untouched, so clients can retry without
// double-applying. The delta is applied to the specification once: on
// the patch path by the engine, which hands back the patched spec and
// times its own apply; only without a cached predecessor does the server
// apply it here before grounding. Spans are recorded under family:
// "patch" on the owner, "replica" on a follower. The engine stage is
// labelled remap when the predecessor was patched incrementally and
// reground when the version was grounded from scratch — no cached
// predecessor, or an engine fallback to a full rebuild.
func (s *Server) applyDelta(ctx context.Context, e *Entry, req *api.DeltaRequest, family string, version int) (*Entry, *core.Reasoner, error) {
	tr := obs.From(ctx)
	d, err := resolveDelta(e, req)
	if err != nil {
		return nil, nil, err
	}
	var (
		ns    *spec.Spec
		nr    *core.Reasoner
		apply time.Duration
		stage = stageReground
	)
	t0 := time.Now()
	if old, ok := s.cache.Peek(reasonerKey{id: e.ID, version: e.Version}); ok {
		if nr, err = old.Patched(d); err != nil {
			return nil, nil, err
		}
		ns = nr.Spec()
		stats, _ := nr.Engine().PatchStats()
		apply = stats.SpecApply
		if !stats.FullRebuild {
			stage = stageRemap
		}
	} else {
		if ns, _, err = d.Apply(e.File.Spec); err != nil {
			return nil, nil, err
		}
		apply = time.Since(t0)
		if nr, err = core.NewReasoner(ns); err != nil {
			return nil, nil, err
		}
	}
	engine := time.Since(t0) - apply
	s.metrics.patchDur.With(stageDeltaApply).Observe(apply)
	s.metrics.patchDur.With(stage).Observe(engine)
	if tr != nil {
		off := t0.Sub(tr.Start)
		tr.AddSpanAt(family+"."+stageDeltaApply, off, apply, "")
		tr.AddSpanAt(family+"."+stage, off+apply, engine, fmt.Sprintf("spec=%s %d->%d", e.ID, e.Version, version))
	}
	nr.Engine().SetWorkers(s.workers)
	// Keep the lineage's counters flowing into the server-wide sink: a
	// no-op on the remap path (ApplyDelta inherits the predecessor's
	// sink), an absorb on the reground path (cold grounding effort).
	nr.Engine().SetStatsSink(&s.metrics.engine)
	ne, err := s.registry.Publish(e.ID, e.Version, version, &parse.File{Spec: ns, Queries: e.File.Queries})
	if err != nil {
		return nil, nil, err // concurrent update won; nr is discarded
	}
	s.cache.Install(reasonerKey{id: ne.ID, version: ne.Version}, nr, stage == stageRemap)
	return ne, nr, nil
}

// register is the shared registration path of the HTTP handler and the
// programmatic Register: the registry put, followed by replication to
// the spec's followers when this node owns it. A non-owner cluster node
// registering programmatically keeps the spec local only (the HTTP path
// forwards to the owner first; programmatic callers are trusted to know
// which node they are on).
func (s *Server) register(id, source string) (*Entry, error) {
	e, err := s.registry.Put(id, source)
	if err != nil {
		return nil, err
	}
	if s.cluster != nil {
		s.cluster.replicateRegister(e)
	}
	return e, nil
}

// Register programmatically registers a spec, for embedding the server in
// tests and tools without HTTP round-trips.
func (s *Server) Register(id, source string) (*Entry, error) {
	return s.register(id, source)
}

// Close stops the cluster replication workers. A no-op on a single-node
// server; the HTTP handler itself holds no resources.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.close()
	}
}

// PatchSpec programmatically applies a wire delta, sharing the HTTP
// path's registry bump, cache patching and unguarded-retry semantics.
func (s *Server) PatchSpec(id string, req api.DeltaRequest) (*Entry, api.PatchInfo, error) {
	return s.patchCurrent(context.Background(), id, &req)
}

// Decide programmatically runs one decision, sharing the HTTP path's
// routing and cache.
func (s *Server) Decide(id string, req api.DecisionRequest) (api.DecisionResult, error) {
	return s.DecideCtx(context.Background(), id, req)
}

// DecideCtx is Decide under a caller context: its deadline and
// cancellation bound the engine searches exactly like an HTTP request's
// deadline does.
func (s *Server) DecideCtx(ctx context.Context, id string, req api.DecisionRequest) (api.DecisionResult, error) {
	e, ok := s.registry.Get(id)
	if !ok {
		return api.DecisionResult{}, fmt.Errorf("no spec %q", id)
	}
	res := s.decide(ctx, e, &req)
	if res.Error != "" {
		return res, fmt.Errorf("%s", res.Error)
	}
	return res, nil
}
