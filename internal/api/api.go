// Package api defines the JSON wire types of the currencyd server: spec
// registration and retrieval, the decision-problem requests and results,
// and batch envelopes. Both internal/server and internal/client depend on
// these types, so the two sides cannot drift apart.
//
// Specifications travel in the textual format of internal/parse; values in
// query answers are rendered as native JSON strings and numbers.
package api

// Op names one decision problem of the paper, as exposed by the server.
type Op string

// The decision operations. Each maps to a dedicated endpoint
// POST /specs/{id}/<op> and to the "op" field of batch requests.
const (
	OpConsistent         Op = "consistent"          // CPS
	OpCertainOrder       Op = "certain-order"       // COP
	OpDeterministic      Op = "deterministic"       // DCIP
	OpCertainAnswers     Op = "certain-answers"     // CCQA
	OpCurrencyPreserving Op = "currency-preserving" // CPP
	OpBoundedCopying     Op = "bounded-copying"     // BCP
)

// Engines reported in DecisionResult.Engine.
const (
	// EngineExact is the exact solver of internal/core (worst-case
	// exponential, handles denial constraints and all query classes).
	EngineExact = "exact"
	// EnginePTime is a Section-6 polynomial algorithm of
	// internal/tractable (constraint-free specifications; SP queries for
	// the query-dependent problems).
	EnginePTime = "ptime"
)

// TraceHeader is the response header carrying the server-assigned
// per-request trace ID; pass it to GET /debug/traces lookups (the slow
// log keys traces by this ID) and quote it in bug reports.
const TraceHeader = "X-Currencyd-Trace"

// RegisterRequest registers or updates a specification. Source is the
// textual format of internal/parse (relations, instances, constraints,
// copy functions, and optionally named queries). An empty ID lets the
// server assign one; re-registering an existing ID bumps its version and
// replaces the specification.
type RegisterRequest struct {
	ID     string `json:"id,omitempty"`
	Source string `json:"source"`
}

// SpecInfo describes one registered specification version.
type SpecInfo struct {
	ID      string `json:"id"`
	Version int    `json:"version"`
	// Summary is a human-readable one-liner (relations, tuples,
	// constraints, copy functions).
	Summary string `json:"summary"`
	// Queries lists the names of queries declared alongside the
	// specification, usable as QueryRef.Name in decision requests.
	Queries []string `json:"queries,omitempty"`
	// Source is the canonical textual form; populated on single-spec GETs
	// and omitted from listings.
	Source string `json:"source,omitempty"`
}

// SpecList is the response of GET /specs.
type SpecList struct {
	Specs []SpecInfo `json:"specs"`
}

// TupleInsert appends one tuple to a relation: Values holds one entry per
// schema attribute (JSON strings for string values, numbers for integer
// values). Label optionally names the tuple for later reference.
type TupleInsert struct {
	Rel    string `json:"rel"`
	Label  string `json:"label,omitempty"`
	Values []any  `json:"values"`
}

// TupleRef addresses one tuple of a relation, by declared label or
// zero-based decimal index.
type TupleRef struct {
	Rel string `json:"rel"`
	Ref string `json:"ref"`
}

// CopyAdd declares one new copy function. Map lists target <- source
// tuple pairs (label- or index-addressed, post-delta indices); the
// copying condition (value agreement on the correlated attributes) is
// validated server-side.
type CopyAdd struct {
	Name        string      `json:"name"`
	Target      string      `json:"target"`
	Source      string      `json:"source"`
	TargetAttrs []string    `json:"targetAttrs"`
	SourceAttrs []string    `json:"sourceAttrs"`
	Map         [][2]string `json:"map,omitempty"`
}

// DeltaRequest is the body of PATCH /specs/{id}: an incremental change
// to a registered specification. Pieces apply in a fixed order — tuple
// deletes (addressed pre-delta), inserts (appended), order adds
// (addressed post-delta, so freshly inserted tuples can be ordered),
// constraint drops, constraint adds, copy drops, copy adds. Added
// constraints travel in the textual declaration syntax ("constraint c on
// R forall s, t: ... -> ..."). The registry bumps the spec version and
// the reasoner cache patches the existing grounded engine incrementally
// instead of re-grounding from scratch (see PatchInfo).
type DeltaRequest struct {
	// BaseVersion guards against concurrent updates: when non-zero, the
	// patch applies only if the registered version still matches,
	// otherwise the server answers 409 Conflict.
	BaseVersion     int           `json:"baseVersion,omitempty"`
	DeleteTuples    []TupleRef    `json:"deleteTuples,omitempty"`
	InsertTuples    []TupleInsert `json:"insertTuples,omitempty"`
	AddOrders       []OrderPair   `json:"addOrders,omitempty"`
	DropConstraints []string      `json:"dropConstraints,omitempty"`
	AddConstraints  []string      `json:"addConstraints,omitempty"`
	DropCopies      []string      `json:"dropCopies,omitempty"`
	AddCopies       []CopyAdd     `json:"addCopies,omitempty"`
}

// PatchInfo reports how the reasoner cache absorbed a spec patch.
type PatchInfo struct {
	// Patched is true when a cached grounded reasoner was patched
	// incrementally. It is false when the new version was grounded from
	// scratch, in either of two cases: no grounded predecessor was
	// cached, or the engine fell back to a full rebuild (the predecessor
	// had a unit conflict, or the delta adds an unconditional denial
	// constraint). Both count as cacheRegrounded in /stats.
	Patched bool `json:"patched"`
	// ReusedComps / RebuiltComps report the engine components carried
	// over vs invalidated by the patch (zero when not patched).
	ReusedComps  int `json:"reusedComps,omitempty"`
	RebuiltComps int `json:"rebuiltComps,omitempty"`
	// CopiedRules / RegroundRules report ground-rule provenance after the
	// patch (zero when not patched).
	CopiedRules   int `json:"copiedRules,omitempty"`
	RegroundRules int `json:"regroundRules,omitempty"`
	// DroppedRules counts old ground rules the delete remap discarded
	// because they mentioned deleted tuples (zero when not patched).
	DroppedRules int `json:"droppedRules,omitempty"`
}

// PatchResult is the response of PATCH /specs/{id}.
type PatchResult struct {
	SpecInfo
	Patch PatchInfo `json:"patch"`
}

// QueryRef identifies the query of a decision request: either the Name of
// a query declared in the registered specification, or inline Source in
// the textual query format ("query Q(x) := ..."). Exactly one must be set.
type QueryRef struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
}

// OrderPair is one required pair of a certain-order (COP) check: tuple I
// must precede tuple J in the currency order of Attr on relation Rel.
// Tuples are addressed by label (as declared in the instance block) or,
// when labels are absent, by zero-based index rendered in decimal.
type OrderPair struct {
	Rel  string `json:"rel"`
	Attr string `json:"attr"`
	I    string `json:"i"`
	J    string `json:"j"`
}

// DecisionRequest is one decision-problem invocation. Op selects the
// problem; the remaining fields apply per problem:
//
//	consistent          — no parameters
//	certain-order       — Orders
//	deterministic       — Relation (empty = every relation)
//	certain-answers     — Query
//	currency-preserving — Query, Space
//	bounded-copying     — Query, K, Space
type DecisionRequest struct {
	Op       Op          `json:"op"`
	Orders   []OrderPair `json:"orders,omitempty"`
	Relation string      `json:"relation,omitempty"`
	Query    *QueryRef   `json:"query,omitempty"`
	// K bounds the number of extra imports for bounded-copying.
	K int `json:"k,omitempty"`
	// Space selects the extension space for the exact CPP/BCP procedures:
	// "matching" (default; EID-matching imports), "full" (the paper's
	// unrestricted space — doubly exponential), or "conservative"
	// (mapping-only extensions that add no tuples). Setting it forces the
	// exact engine even on PTIME-eligible requests.
	Space string `json:"space,omitempty"`
	// Exact forces the exact engine even when a PTIME algorithm applies.
	Exact bool `json:"exact,omitempty"`
	// BudgetMS, when positive, caps this decision's engine effort to the
	// given wall-clock milliseconds, tightening (never extending) the
	// server's per-op deadline. An exceeded budget yields an
	// Indeterminate or Degraded result instead of an error — see
	// DecisionResult.
	BudgetMS int64 `json:"budgetMs,omitempty"`
}

// AnswerRow is one tuple of a query result; string values arrive as JSON
// strings, integer values as JSON numbers, and fresh labelled nulls (from
// the PTIME possible-worlds construction) as objects {"fresh": id}.
type AnswerRow []any

// ResultSet is a set of answer rows with their column names.
type ResultSet struct {
	Cols []string    `json:"cols"`
	Rows []AnswerRow `json:"rows"`
}

// DecisionResult is the outcome of one decision request.
type DecisionResult struct {
	Op Op `json:"op"`
	// Engine reports which algorithm family answered: "exact" or "ptime".
	Engine string `json:"engine"`
	// SpecVersion is the registry version the decision ran against.
	SpecVersion int `json:"specVersion"`
	// Holds reports the boolean verdict for consistent, certain-order,
	// deterministic, currency-preserving and bounded-copying.
	Holds *bool `json:"holds,omitempty"`
	// Answers holds the certain answers for certain-answers requests.
	Answers *ResultSet `json:"answers,omitempty"`
	// VacuouslyTrue marks verdicts that hold only because Mod(S) is empty
	// (certain-order and deterministic on inconsistent specifications) and
	// certain-answer sets that are vacuously all tuples.
	VacuouslyTrue bool `json:"vacuouslyTrue,omitempty"`
	// Witness carries the extension atoms found by bounded-copying, or the
	// PTIME witness description.
	Witness []string `json:"witness,omitempty"`
	// Indeterminate marks a decision whose effort budget (deadline,
	// per-request budget, or client cancellation) expired before the
	// exact engine proved either verdict, and no sound approximation
	// applied: Holds and Answers are absent, Reason says why.
	Indeterminate bool `json:"indeterminate,omitempty"`
	// Degraded marks a verdict produced by a Section-6 polynomial
	// algorithm on the constraint-relaxed specification after the exact
	// engine blew its budget. Degraded verdicts are sound but one-sided:
	// a degraded consistent=false, certain-order/deterministic=true, or
	// certain-answer set (a subset) is definitive; the other direction
	// would have come back Indeterminate instead.
	Degraded bool `json:"degraded,omitempty"`
	// Reason is the machine-readable budget-exhaustion cause for
	// Indeterminate or Degraded results: "deadline", "cancelled" or
	// "budget".
	Reason string `json:"reason,omitempty"`
	// Error is set instead of the payload when the request failed; used in
	// batch responses where one bad request must not fail the envelope.
	Error string `json:"error,omitempty"`
}

// BatchRequest fans a list of decision requests over the server's worker
// pool. Results come back in request order.
type BatchRequest struct {
	Requests []DecisionRequest `json:"requests"`
}

// BatchResponse carries one result per request, in order.
type BatchResponse struct {
	Results []DecisionResult `json:"results"`
}

// EngineCounters mirrors osolve.EngineCounters on the wire: the
// cumulative search effort of every engine the server has run,
// monotonic across cache evictions and incremental patches.
type EngineCounters struct {
	Decisions        uint64 `json:"decisions"`
	Propagations     uint64 `json:"propagations"`
	Conflicts        uint64 `json:"conflicts"`
	Searches         uint64 `json:"searches"`
	ScopedCloneBytes uint64 `json:"scopedCloneBytes"`
	PoolHits         uint64 `json:"poolHits"`
	PoolMisses       uint64 `json:"poolMisses"`
	MemoHits         uint64 `json:"memoHits"`
}

// Stats reports server counters for observability and tests. GET
// /metrics exposes the same data (plus latency histograms) in the
// Prometheus text format.
type Stats struct {
	Specs         int    `json:"specs"`
	CacheEntries  int    `json:"cacheEntries"`
	CacheCapacity int    `json:"cacheCapacity"`
	CacheHits     uint64 `json:"cacheHits"`
	CacheMisses   uint64 `json:"cacheMisses"`
	// CachePatched counts spec updates absorbed by patching a cached
	// grounded reasoner in place of a cold re-ground; CacheRegrounded
	// counts updates that fell back to grounding from scratch (no
	// grounded predecessor cached, or caching disabled).
	CachePatched    uint64 `json:"cachePatched"`
	CacheRegrounded uint64 `json:"cacheRegrounded"`
	Workers         int    `json:"workers"`
	// Requests counts requests served on instrumented endpoints;
	// SlowRequests counts the ones over the slow-query threshold.
	Requests     uint64 `json:"requests"`
	SlowRequests uint64 `json:"slowRequests"`
	// RequestsShed counts requests rejected 429 by the admission queue;
	// QueryTimeouts counts exact decisions interrupted by a deadline;
	// Degraded counts decisions answered by the relaxed PTIME fallback;
	// Panics counts handler panics converted to 500s by the recovery
	// middleware; PatchConflicts counts version conflicts observed by
	// the PATCH path (guarded rejections and unguarded retries alike).
	RequestsShed   uint64 `json:"requestsShed"`
	QueryTimeouts  uint64 `json:"queryTimeouts"`
	Degraded       uint64 `json:"degraded"`
	Panics         uint64 `json:"panics"`
	PatchConflicts uint64 `json:"patchConflicts"`
	// PatchDroppedRules aggregates PatchInfo.DroppedRules over every
	// successful incremental patch: ground rules discarded because the
	// tuples they mentioned were deleted.
	PatchDroppedRules uint64 `json:"patchDroppedRules"`
	// Engine is the cumulative engine search effort.
	Engine EngineCounters `json:"engine"`
	// Cluster carries the cluster-layer counters (forwarding and
	// replication); nil on single-node servers.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// SpanInfo is one per-layer step of a traced request.
type SpanInfo struct {
	Name string `json:"name"`
	// OffsetNS is the span start relative to the request start; DurNS
	// is the span duration. Both in nanoseconds.
	OffsetNS int64 `json:"offsetNs"`
	DurNS    int64 `json:"durNs"`
	// Detail carries layer-specific context, e.g. engine search effort.
	Detail string `json:"detail,omitempty"`
}

// TraceInfo is one recorded request trace.
type TraceInfo struct {
	ID       string     `json:"id"`
	Endpoint string     `json:"endpoint"`
	Start    string     `json:"start"` // RFC 3339 with nanoseconds
	DurNS    int64      `json:"durNs"`
	Status   int        `json:"status"`
	Spans    []SpanInfo `json:"spans"`
}

// TraceList is the response of GET /debug/traces: the slowest requests
// seen so far, slowest first.
type TraceList struct {
	Traces []TraceInfo `json:"traces"`
}

// Error is the JSON error envelope for non-2xx responses.
type Error struct {
	Error string `json:"error"`
}
