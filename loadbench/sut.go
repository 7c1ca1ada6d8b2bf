package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"currency/internal/api"
	"currency/internal/client"
	"currency/internal/cluster"
	"currency/internal/server"
)

// sut is the system under test: one or three currencyd servers in this
// process, each behind a real loopback TCP listener.
type sut struct {
	servers []*server.Server
	https   []*http.Server
	addrs   []string
	ring    *cluster.Ring // nil on a single node
	peer    *http.Transport
	serving sync.WaitGroup
	byID    map[string]int
}

// swapHandler lets the listeners exist before the servers, so every
// node's ring configuration can name every node's address.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

// startSUT starts n nodes; with n > 1 they form a ring with one follower
// per spec.
func startSUT(n int) (*sut, error) {
	t := &sut{byID: make(map[string]int)}
	swaps := make([]*swapHandler, n)
	nodes := make([]cluster.Node, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.stop()
			return nil, err
		}
		swaps[i] = &swapHandler{}
		hs := &http.Server{Handler: swaps[i]}
		t.https = append(t.https, hs)
		t.addrs = append(t.addrs, "http://"+ln.Addr().String())
		nodes[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), Addr: t.addrs[i]}
		t.byID[nodes[i].ID] = i
		t.serving.Add(1)
		go func() {
			defer t.serving.Done()
			_ = hs.Serve(ln)
		}()
	}
	var opts server.Options
	if n > 1 {
		ring, err := newRing(nodes, 1)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.ring = ring
		t.peer = &http.Transport{MaxIdleConnsPerHost: 4}
	}
	for i := 0; i < n; i++ {
		if n > 1 {
			opts.Cluster = &server.ClusterOptions{
				Self: nodes[i].ID, Nodes: nodes, Replicas: 1,
				HTTPClient: &http.Client{Transport: t.peer},
			}
		}
		srv := newServer(opts)
		t.servers = append(t.servers, srv)
		swaps[i].mu.Lock()
		swaps[i].h = serverHandler(srv)
		swaps[i].mu.Unlock()
	}
	return t, nil
}

// stop closes every listener and connection, stops the replication
// workers, and waits for the serving goroutines to return. Nothing is in
// flight by then, so there is nothing to drain.
func (t *sut) stop() {
	for _, hs := range t.https {
		_ = hs.Close()
	}
	for _, s := range t.servers {
		serverClose(s)
	}
	if t.peer != nil {
		t.peer.CloseIdleConnections()
	}
	t.serving.Wait()
}

// owner, follower and nonHolder return the index of the node owning spec
// id, holding its replica, and holding no copy of it. A single node is
// the owner, and there is no follower or non-holder (-1).
func (t *sut) owner(id string) int {
	if t.ring == nil {
		return 0
	}
	o, _, _ := ringPlacement(t.ring, id)
	return t.byID[o]
}

func (t *sut) follower(id string) int {
	if t.ring == nil {
		return -1
	}
	_, f, _ := ringPlacement(t.ring, id)
	return t.byID[f]
}

func (t *sut) nonHolder(id string) int {
	if t.ring == nil {
		return -1
	}
	_, _, n := ringPlacement(t.ring, id)
	if n == "" {
		return -1
	}
	return t.byID[n]
}

// conn is one load-generating client: its own transport, so at most one
// keep-alive connection per node, and one internal/client per node.
type conn struct {
	tr      *http.Transport
	clients []*client.Client
	next    int // round-robin node cursor
}

func (t *sut) dial() *conn {
	c := &conn{tr: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	hc := &http.Client{Transport: c.tr}
	for _, a := range t.addrs {
		c.clients = append(c.clients, newClient(a, hc))
	}
	return c
}

// pick returns the next node's client, round-robin.
func (c *conn) pick() *client.Client {
	cl := c.clients[c.next%len(c.clients)]
	c.next++
	return cl
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// setup starts a fresh system, registers every specification and has
// each answer one decision; on a ring it also waits until every follower
// holds its replica and has answered one decision on it. The returned
// duration is one setup_s sample.
func setup(w workload, specs []*specInput) (*sut, *conn, time.Duration, error) {
	t0 := time.Now()
	t, err := startSUT(w.nodes)
	if err != nil {
		return nil, nil, 0, err
	}
	c := t.dial()
	fail := func(err error) (*sut, *conn, time.Duration, error) {
		c.close()
		t.stop()
		return nil, nil, 0, err
	}
	for _, in := range specs {
		if err := clientRegister(c.clients[0], in.id, in.source); err != nil {
			return fail(err)
		}
	}
	probe := api.DecisionRequest{Op: api.OpConsistent}
	for _, in := range specs {
		if _, err := clientDecide(c.clients[t.owner(in.id)], in.id, &probe); err != nil {
			return fail(err)
		}
	}
	if t.ring != nil {
		deadline := time.Now().Add(10 * time.Second)
		for _, in := range specs {
			f := c.clients[t.follower(in.id)]
			for {
				st, err := clientClusterStatus(f)
				if err == nil && st.Versions[in.id] >= 1 {
					break
				}
				if time.Now().After(deadline) {
					return fail(errors.New("loadbench: replicas did not converge in 10s"))
				}
				time.Sleep(time.Millisecond)
			}
			if _, err := clientDecide(f, in.id, &probe); err != nil {
				return fail(err)
			}
		}
	}
	return t, c, time.Since(t0), nil
}
