package server

// The cluster layer: spec ownership sharded over a node ring, request
// forwarding, and owner-to-follower delta replication.
//
// Every node runs the same Server with the same ring configuration and
// computes spec placement independently (rendezvous hashing, see
// internal/cluster). The owner of a spec is its single writer: writes
// arriving anywhere else are forwarded to it (one hop — a forwarded
// request is marked and never re-forwarded). After each local write the
// owner streams a replication frame to the spec's followers: full
// canonical source for registrations and re-syncs, the original wire
// delta for patches. A follower applies a delta frame through the same
// incremental patch path the owner used — the cached grounded reasoner
// absorbs the delta via osolve.ApplyDelta instead of re-grounding,
// which is the entire point: a patch grounds once, cluster-wide.
//
// Replication is asynchronous and per-follower ordered: one worker
// goroutine and one frame queue per peer. Every failure mode degrades
// to a full re-sync — a follower that misses frames (drop, restart,
// overflow) NACKs the next delta's version gap and receives the owner's
// current canonical source; a send failure marks the spec dirty and a
// retry tick re-syncs it. Followers therefore converge to the owner's
// version without any handshake protocol, at the cost of replica reads
// being eventually consistent (results carry SpecVersion, so clients
// always know which version answered).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"currency/internal/api"
	"currency/internal/chaos"
	"currency/internal/cluster"
)

// ClusterOptions configures the cluster layer of a Server. Leaving the
// field nil in Options runs a plain single-node currencyd.
type ClusterOptions struct {
	// Self is this node's ID; it must appear in Nodes.
	Self string
	// Nodes is the full ring membership, including self. Every node of
	// the cluster must be configured with the same membership.
	Nodes []cluster.Node
	// Replicas is the number of follower copies per spec (owner not
	// counted), clamped to len(Nodes)-1.
	Replicas int
	// HTTPClient is the transport used to reach peers; nil means
	// http.DefaultClient.
	HTTPClient *http.Client
}

// replSendTimeout bounds one replication or forwarded-batch exchange
// with a peer; a slower peer is treated as failed and re-synced later.
const replSendTimeout = 30 * time.Second

// resyncTick is how often a follower link retries specs whose
// replication previously failed. Convergence after a follower rejoin
// is bounded by this plus the send itself.
const resyncTick = 50 * time.Millisecond

// frameQueueLen bounds each follower's in-order frame queue; overflow
// degrades to a full re-sync instead of blocking the write path.
const frameQueueLen = 256

// clusterState is the per-node cluster runtime.
type clusterState struct {
	s    *Server
	ring *cluster.Ring
	self cluster.Node
	hc   *http.Client

	links map[string]*followerLink // every peer, keyed by node ID
	stop  chan struct{}
	wg    sync.WaitGroup

	// nextID feeds cluster-unique spec IDs for registrations that let
	// the server assign one (prefixing the node ID keeps two nodes from
	// ever minting the same spec ID).
	nextID atomic.Uint64
}

// followerLink is the owner-side replication channel to one peer.
type followerLink struct {
	node   cluster.Node
	frames chan queuedFrame

	mu     sync.Mutex
	resync map[string]bool // specs needing a full re-sync
}

// queuedFrame carries the enqueue time so the acked frame's replication
// lag can be observed.
type queuedFrame struct {
	frame    api.ReplicationFrame
	enqueued time.Time
}

func (l *followerLink) markResync(spec string) {
	l.mu.Lock()
	if l.resync == nil {
		l.resync = make(map[string]bool)
	}
	l.resync[spec] = true
	l.mu.Unlock()
}

func (l *followerLink) takeResyncs() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.resync) == 0 {
		return nil
	}
	out := make([]string, 0, len(l.resync))
	for spec := range l.resync {
		out = append(out, spec)
	}
	l.resync = nil
	return out
}

// newClusterState validates the options and starts one replication
// worker per peer.
func newClusterState(s *Server, opts *ClusterOptions) (*clusterState, error) {
	ring, err := cluster.New(opts.Nodes, opts.Replicas)
	if err != nil {
		return nil, err
	}
	self, ok := ring.Node(opts.Self)
	if !ok {
		return nil, fmt.Errorf("cluster: self node %q not in the ring", opts.Self)
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	cs := &clusterState{
		s:     s,
		ring:  ring,
		self:  self,
		hc:    hc,
		links: make(map[string]*followerLink),
		stop:  make(chan struct{}),
	}
	for _, n := range ring.Nodes() {
		if n.ID == self.ID {
			continue
		}
		l := &followerLink{node: n, frames: make(chan queuedFrame, frameQueueLen)}
		cs.links[n.ID] = l
		cs.wg.Add(1)
		go cs.worker(l)
	}
	return cs, nil
}

// close stops the replication workers; queued frames are dropped (a
// restarted owner re-syncs followers on its next write, and followers
// NACK gaps regardless).
func (cs *clusterState) close() {
	close(cs.stop)
	cs.wg.Wait()
}

func (cs *clusterState) ringConfig() api.RingConfig {
	rc := api.RingConfig{Replicas: cs.ring.Replicas()}
	for _, n := range cs.ring.Nodes() {
		rc.Nodes = append(rc.Nodes, api.NodeInfo{ID: n.ID, Addr: n.Addr})
	}
	return rc
}

// assignID mints a cluster-unique spec ID for an empty-ID registration.
func (cs *clusterState) assignID() string {
	return fmt.Sprintf("%s-s%d", cs.self.ID, cs.nextID.Add(1))
}

// ---------------------------------------------------------------------
// Owner side: replication.

// enqueue routes a frame to every follower of the spec. A full queue
// (follower far behind) degrades to a re-sync marker instead of
// blocking the write path.
func (cs *clusterState) enqueue(frame api.ReplicationFrame) {
	for _, n := range cs.ring.Followers(frame.SpecID) {
		l := cs.links[n.ID]
		if l == nil { // self cannot follow a spec it owns
			continue
		}
		select {
		case l.frames <- queuedFrame{frame: frame, enqueued: time.Now()}:
		default:
			l.markResync(frame.SpecID)
		}
	}
}

// replicateRegister streams a freshly registered (or re-registered)
// spec to its followers as a full frame.
func (cs *clusterState) replicateRegister(e *Entry) {
	if !cs.ring.IsOwner(e.ID, cs.self.ID) {
		return
	}
	cs.enqueue(cs.fullFrame(e))
}

// fullFrame is the full replication frame for e: its canonical source
// at its version, rendered on first use and shared by every caller.
func (cs *clusterState) fullFrame(e *Entry) api.ReplicationFrame {
	return api.ReplicationFrame{SpecID: e.ID, Origin: cs.self.ID, ToVersion: e.Version, Source: e.Source()}
}

// replicateDelta streams an applied patch to the spec's followers: the
// original wire delta plus the exact version edge it moved the owner
// across, so followers at the same base apply the identical incremental
// patch.
func (cs *clusterState) replicateDelta(ne *Entry, req *api.DeltaRequest) {
	if !cs.ring.IsOwner(ne.ID, cs.self.ID) {
		return
	}
	d := *req
	d.BaseVersion = 0 // the frame's FromVersion is the guard, not the client's
	cs.enqueue(api.ReplicationFrame{
		SpecID: ne.ID, Origin: cs.self.ID,
		FromVersion: ne.Version - 1, ToVersion: ne.Version, Delta: &d,
	})
}

// replicateDelete streams a spec deletion to its followers.
func (cs *clusterState) replicateDelete(id string) {
	if !cs.ring.IsOwner(id, cs.self.ID) {
		return
	}
	cs.enqueue(api.ReplicationFrame{SpecID: id, Origin: cs.self.ID, Delete: true})
}

// worker drains one follower's frame queue in order and retries failed
// specs on a tick. Send failures never block the owner's write path —
// the spec is marked dirty and the tick re-syncs it from the registry's
// current state.
func (cs *clusterState) worker(l *followerLink) {
	defer cs.wg.Done()
	tick := time.NewTicker(resyncTick)
	defer tick.Stop()
	for {
		select {
		case <-cs.stop:
			return
		case qf := <-l.frames:
			cs.send(l, qf)
		case <-tick.C:
			for _, spec := range l.takeResyncs() {
				cs.fullSync(l, spec)
			}
		}
	}
}

// send pushes one frame; a NACKed version gap immediately escalates to
// a full re-sync, any error defers the spec to the resync tick.
func (cs *clusterState) send(l *followerLink, qf queuedFrame) {
	m := cs.s.metrics
	chaos.ReplStall.Hit()
	ack, err := cs.postFrame(l, &qf.frame)
	if err != nil {
		m.replErrors.Inc()
		l.markResync(qf.frame.SpecID)
		return
	}
	if ack.NeedFull {
		m.replResyncs.Inc()
		cs.fullSync(l, qf.frame.SpecID)
		return
	}
	m.replLag.Observe(time.Since(qf.enqueued))
	switch {
	case qf.frame.Delta != nil:
		m.replDeltas.Inc()
	case qf.frame.Source != "":
		m.replFulls.Inc()
	}
}

// fullSync pushes the owner's current canonical source (or a delete, if
// the spec is gone) to one follower.
func (cs *clusterState) fullSync(l *followerLink, spec string) {
	m := cs.s.metrics
	frame := api.ReplicationFrame{SpecID: spec, Origin: cs.self.ID, Delete: true}
	if e, ok := cs.s.registry.Get(spec); ok {
		frame = cs.fullFrame(e)
	}
	chaos.ReplStall.Hit()
	if _, err := cs.postFrame(l, &frame); err != nil {
		m.replErrors.Inc()
		l.markResync(spec)
		return
	}
	m.replFulls.Inc()
}

// postFrame runs one replication exchange with a peer.
func (cs *clusterState) postFrame(l *followerLink, frame *api.ReplicationFrame) (api.ReplicationAck, error) {
	var ack api.ReplicationAck
	body, err := json.Marshal(frame)
	if err != nil {
		return ack, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), replSendTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		l.node.Addr+"/cluster/replicate", bytes.NewReader(body))
	if err != nil {
		return ack, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cs.hc.Do(req)
	if err != nil {
		return ack, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return ack, err
	}
	if resp.StatusCode != http.StatusOK {
		return ack, fmt.Errorf("replicate to %s: HTTP %d: %s", l.node.ID, resp.StatusCode, raw)
	}
	return ack, json.Unmarshal(raw, &ack)
}

// ---------------------------------------------------------------------
// Follower side: applying replication frames.

// handleReplicate receives one replication frame from a spec's owner.
// The endpoint is deliberately outside the admission gate: replication
// keeps replicas converging exactly when the cluster is busiest, and
// its cost is bounded by a patch the owner already paid for once.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "not a cluster member")
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading frame: %v", err)
		return
	}
	frame, err := api.DecodeReplicationFrame(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad replication frame: %v", err)
		return
	}
	if chaos.ReplDrop.Hit() {
		writeError(w, http.StatusServiceUnavailable, "chaos: replication frame dropped")
		return
	}
	ack, err := s.applyFrame(r.Context(), frame)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "applying frame: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

// applyFrame applies one replication frame to the local replica set.
func (s *Server) applyFrame(ctx context.Context, frame *api.ReplicationFrame) (api.ReplicationAck, error) {
	m := s.metrics
	switch {
	case frame.Delete:
		if s.registry.Delete(frame.SpecID) {
			s.cache.InvalidateSpec(frame.SpecID)
		}
		return api.ReplicationAck{Version: 0}, nil

	case frame.Source != "":
		e, err := s.registry.InstallReplica(frame.SpecID, frame.Source, frame.ToVersion)
		if err != nil {
			return api.ReplicationAck{}, err
		}
		if e.Version == frame.ToVersion {
			m.replicaFulls.Inc()
		}
		return api.ReplicationAck{Version: e.Version}, nil

	default: // delta frame
		e, ok := s.registry.Get(frame.SpecID)
		if !ok || e.Version < frame.FromVersion {
			m.replicaNacks.Inc()
			v := 0
			if ok {
				v = e.Version
			}
			return api.ReplicationAck{Version: v, NeedFull: true}, nil
		}
		if e.Version >= frame.ToVersion {
			// Duplicate or superseded frame (a re-sync already moved the
			// replica past it): acknowledge without applying.
			return api.ReplicationAck{Version: e.Version}, nil
		}
		// The owner grounded this patch once; the replica pays only the
		// incremental engine patch when its predecessor is cached.
		ne, _, err := s.applyDelta(ctx, e, frame.Delta, "replica", frame.ToVersion)
		if err != nil {
			// Any apply failure degrades to a full re-sync: the owner
			// applied this delta successfully, so a local failure means
			// the replica diverged somehow — resynchronize rather than
			// guess.
			m.replicaNacks.Inc()
			return api.ReplicationAck{Version: e.Version, NeedFull: true}, nil
		}
		m.replicaDeltas.Inc()
		return api.ReplicationAck{Version: ne.Version}, nil
	}
}

// ---------------------------------------------------------------------
// Forwarding.

// forwardSpec reports whether this request was proxied to the spec's
// owner (true: the response is already written). A request serves
// locally when the node is single-node, already forwarded once (one-hop
// rule), the owner, or — for reads — a follower whose replica of the
// spec has arrived.
func (s *Server) forwardSpec(w http.ResponseWriter, r *http.Request, id string, write bool) bool {
	cs := s.cluster
	if cs == nil || r.Header.Get(api.ForwardHeader) != "" {
		return false
	}
	if cs.ring.IsOwner(id, cs.self.ID) {
		return false
	}
	if !write && cs.ring.IsHolder(id, cs.self.ID) {
		if _, ok := s.registry.Get(id); ok {
			return false // serve the local replica (eventually consistent)
		}
	}
	cs.forward(w, r, cs.ring.Owner(id))
	return true
}

// forward proxies the request to the owner verbatim, marking it so the
// owner never forwards again. The caller's context (and therefore its
// class deadline) bounds the hop; a dead or slow owner surfaces as 504.
func (cs *clusterState) forward(w http.ResponseWriter, r *http.Request, owner cluster.Node) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request for forward: %v", err)
		return
	}
	cs.proxyBody(w, r, owner, body)
}

// forwardJSON proxies a request whose body was already decoded (the
// register path, which may rewrite the spec ID before routing),
// re-marshaling v as the forwarded body.
func (cs *clusterState) forwardJSON(w http.ResponseWriter, r *http.Request, owner cluster.Node, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding request for forward: %v", err)
		return
	}
	cs.proxyBody(w, r, owner, body)
}

func (cs *clusterState) proxyBody(w http.ResponseWriter, r *http.Request, owner cluster.Node, body []byte) {
	m := cs.s.metrics
	chaos.ForwardStall.Hit()
	m.forwarded.Inc()
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		owner.Addr+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		m.forwardErrors.Inc()
		writeError(w, http.StatusBadGateway, "forward to %s: %v", owner.ID, err)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(api.ForwardHeader, cs.self.ID)
	resp, err := cs.hc.Do(req)
	if err != nil {
		m.forwardErrors.Inc()
		writeError(w, http.StatusGatewayTimeout, "forward to owner %s failed: %v", owner.ID, err)
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, io.LimitReader(resp.Body, 64<<20))
}

// ---------------------------------------------------------------------
// Cluster endpoints.

// handleClusterStatus serves the node's identity, ring and version
// vector — the convergence and lag probe for peers, harnesses and
// operators.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster
	if cs == nil {
		writeError(w, http.StatusNotFound, "not a cluster member")
		return
	}
	writeJSON(w, http.StatusOK, api.ClusterStatus{
		Self:     api.NodeInfo{ID: cs.self.ID, Addr: cs.self.Addr},
		Ring:     cs.ringConfig(),
		Versions: s.registry.Versions(),
		Stats:    *s.clusterStats(),
	})
}

// clusterStats snapshots the cluster-layer counters (nil off-cluster).
func (s *Server) clusterStats() *api.ClusterStats {
	if s.cluster == nil {
		return nil
	}
	m := s.metrics
	return &api.ClusterStats{
		NodeID:               s.cluster.self.ID,
		Forwarded:            m.forwarded.Load(),
		ForwardErrors:        m.forwardErrors.Load(),
		ReplDeltasSent:       m.replDeltas.Load(),
		ReplFullsSent:        m.replFulls.Load(),
		ReplErrors:           m.replErrors.Load(),
		ReplResyncs:          m.replResyncs.Load(),
		ReplicaDeltasApplied: m.replicaDeltas.Load(),
		ReplicaFullsApplied:  m.replicaFulls.Load(),
		ReplicaNacks:         m.replicaNacks.Load(),
	}
}

// handleClusterBatch fans a multi-spec decision list across the ring:
// requests this node can serve (owner, or follower with the replica in
// hand) run on the local worker pool; the rest are grouped by owner and
// forwarded in one sub-batch per peer, in parallel. Results keep
// request order, with per-request failures in-line.
func (s *Server) handleClusterBatch(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterBatchRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "cluster batch needs at least one request")
		return
	}
	results := make([]api.DecisionResult, len(req.Requests))
	cs := s.cluster
	oneHop := r.Header.Get(api.ForwardHeader) != ""

	var local []int
	remote := make(map[string][]int) // owner node ID -> request indices
	for i, cd := range req.Requests {
		if cd.Spec == "" {
			results[i] = api.DecisionResult{Op: cd.Op, Error: "cluster batch request without spec"}
			continue
		}
		serveLocal := cs == nil || oneHop || cs.ring.IsOwner(cd.Spec, cs.self.ID)
		if !serveLocal && cs.ring.IsHolder(cd.Spec, cs.self.ID) {
			_, serveLocal = s.registry.Get(cd.Spec)
		}
		if serveLocal {
			local = append(local, i)
		} else {
			owner := cs.ring.Owner(cd.Spec)
			remote[owner.ID] = append(remote[owner.ID], i)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.runLocalClusterBatch(r.Context(), req.Requests, local, results)
	}()
	for ownerID, idxs := range remote {
		wg.Add(1)
		go func(ownerID string, idxs []int) {
			defer wg.Done()
			cs.forwardBatch(r.Context(), ownerID, req.Requests, idxs, results)
		}(ownerID, idxs)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, api.ClusterBatchResponse{Results: results})
}

// runLocalClusterBatch executes the locally served indices over the
// bounded worker pool.
func (s *Server) runLocalClusterBatch(ctx context.Context, reqs []api.ClusterDecision, idxs []int, results []api.DecisionResult) {
	if len(idxs) == 0 {
		return
	}
	workers := s.workers
	if workers > len(idxs) {
		workers = len(idxs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cd := &reqs[i]
				e, ok := s.registry.Get(cd.Spec)
				if !ok {
					results[i] = api.DecisionResult{Op: cd.Op, Error: fmt.Sprintf("no spec %q", cd.Spec)}
					continue
				}
				results[i] = s.decide(ctx, e, &cd.DecisionRequest)
			}
		}()
	}
	for _, i := range idxs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// forwardBatch sends one owner's share of a cluster batch as a
// sub-batch and scatters the results back; an unreachable owner fails
// only its own share.
func (cs *clusterState) forwardBatch(ctx context.Context, ownerID string, reqs []api.ClusterDecision, idxs []int, results []api.DecisionResult) {
	m := cs.s.metrics
	chaos.ForwardStall.Hit()
	m.forwarded.Inc()
	owner, _ := cs.ring.Node(ownerID)
	sub := api.ClusterBatchRequest{Requests: make([]api.ClusterDecision, len(idxs))}
	for j, i := range idxs {
		sub.Requests[j] = reqs[i]
	}
	fail := func(err error) {
		m.forwardErrors.Inc()
		for _, i := range idxs {
			results[i] = api.DecisionResult{Op: reqs[i].Op, Error: fmt.Sprintf("owner %s unreachable: %v", ownerID, err)}
		}
	}
	body, err := json.Marshal(sub)
	if err != nil {
		fail(err)
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner.Addr+"/cluster/batch", bytes.NewReader(body))
	if err != nil {
		fail(err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.ForwardHeader, cs.self.ID)
	resp, err := cs.hc.Do(req)
	if err != nil {
		fail(err)
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		fail(err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw))
		return
	}
	var out api.ClusterBatchResponse
	if err := json.Unmarshal(raw, &out); err != nil || len(out.Results) != len(idxs) {
		fail(fmt.Errorf("bad sub-batch response (%d results for %d requests): %v", len(out.Results), len(idxs), err))
		return
	}
	for j, i := range idxs {
		results[i] = out.Results[j]
	}
}
