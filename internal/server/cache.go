package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"currency/internal/core"
)

// reasonerKey identifies a grounded reasoner: one spec id at one version.
// A version bump yields a new key, so a stale reasoner is never served
// for the updated spec.
type reasonerKey struct {
	id      string
	version int
}

// cacheEntry holds one grounding, performed at most once. Waiters share
// the result through the sync.Once (singleflight): under a thundering herd
// on a cold key, exactly one request pays the grounding cost. ready flips
// (inside the Once, so the atomic store publishes r/err) when the build
// finished — the patch path peeks at predecessors without joining their
// Once, since joining would ground a version nobody asked for.
type cacheEntry struct {
	key   reasonerKey
	once  sync.Once
	r     *core.Reasoner
	err   error
	ready atomic.Bool
}

// build runs the entry's singleflight once and reports the result.
func (e *cacheEntry) build(f func() (*core.Reasoner, error)) (*core.Reasoner, error) {
	e.once.Do(func() {
		e.r, e.err = f()
		e.ready.Store(true)
	})
	return e.r, e.err
}

// ReasonerCache is an LRU cache of grounded core.Reasoners. Grounding
// (constraint instantiation plus base-state propagation in the solver) is
// the expensive, per-spec part of every exact decision; caching it makes
// repeated queries against a registered spec pay only the search. The
// cached reasoners are served to concurrent requests simultaneously —
// safe because the exact read path never mutates reasoner or spec (see
// the concurrency notes on core.Reasoner).
//
// The cache holds only the live version of each spec: the registry never
// resolves a superseded version again, so inserting (id, v) drops the
// entry for any older version of id, and a request still holding an
// older Entry re-grounds it without caching the result. Capacity
// therefore counts specs, not versions.
//
// A capacity of 0 disables caching: every Get grounds afresh. That mode
// exists for the cache-speedup benchmark and as an operator escape hatch.
type ReasonerCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used; values are *cacheEntry
	items map[string]*list.Element // by spec id; one version per id

	// hits/misses are atomics so the counters never extend the critical
	// section and the disabled-cache path stays lock-free.
	hits   atomic.Uint64
	misses atomic.Uint64
	// patched/regrounded count how spec updates were absorbed: by
	// patching a cached grounded predecessor vs grounding from scratch.
	patched    atomic.Uint64
	regrounded atomic.Uint64
}

// NewReasonerCache returns a cache holding at most capacity reasoners.
func NewReasonerCache(capacity int) *ReasonerCache {
	return &ReasonerCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the reasoner for key, grounding it with build on a miss.
// Concurrent Gets for the same cold key ground once and share the result;
// Gets for different keys ground in parallel (the lock guards only the
// index, never the grounding).
func (c *ReasonerCache) Get(key reasonerKey, build func() (*core.Reasoner, error)) (*core.Reasoner, error) {
	if c.cap <= 0 {
		// cap is immutable after NewReasonerCache, so the disabled mode
		// never needs the mutex at all.
		c.misses.Add(1)
		return build()
	}

	c.mu.Lock()
	if el, ok := c.items[key.id]; ok {
		e := el.Value.(*cacheEntry)
		switch {
		case e.key.version == key.version:
			c.hits.Add(1)
			c.ll.MoveToFront(el)
			c.mu.Unlock()
			return e.build(build)
		case e.key.version > key.version:
			// A superseded version: answer the straggler without
			// evicting the live reasoner.
			c.misses.Add(1)
			c.mu.Unlock()
			return build()
		}
	}
	c.misses.Add(1)
	e := &cacheEntry{key: key}
	c.insert(e)
	c.mu.Unlock()

	if _, err := e.build(build); err != nil {
		// Grounding failures are not worth a cache slot; drop the entry so
		// the next request retries (waiters that already joined this entry
		// still observe the error through the Once).
		c.mu.Lock()
		if el, ok := c.items[key.id]; ok && el.Value.(*cacheEntry) == e {
			c.ll.Remove(el)
			delete(c.items, key.id)
		}
		c.mu.Unlock()
		return nil, e.err
	}
	return e.r, nil
}

// insert makes e the id's cached version, dropping any older one, and
// evicts least recently used specs beyond capacity. Callers hold c.mu.
func (c *ReasonerCache) insert(e *cacheEntry) {
	if el, ok := c.items[e.key.id]; ok {
		c.ll.Remove(el)
	}
	c.items[e.key.id] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key.id)
	}
}

// Peek returns the reasoner cached for key when its grounding already
// completed successfully, without joining any in-flight build. The
// PATCH path uses it to find a grounded predecessor worth patching.
func (c *ReasonerCache) Peek(key reasonerKey) (*core.Reasoner, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key.id]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.key != key || !e.ready.Load() || e.err != nil {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return e.r, true
}

// Install publishes a pre-built reasoner under key and counts how the
// spec update was absorbed (patched incrementally vs re-grounded from
// scratch). The PATCH path builds the successor BEFORE the registry
// publishes the new version, so a failed build leaves every layer
// untouched; Install only ever records a success. An existing entry for
// the key is kept (idempotent retries), and a version older than the
// cached one is not installed (a racing patch already superseded it).
func (c *ReasonerCache) Install(key reasonerKey, r *core.Reasoner, patched bool) {
	if patched {
		c.patched.Add(1)
	} else {
		c.regrounded.Add(1)
	}
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key.id]; ok && el.Value.(*cacheEntry).key.version >= key.version {
		return
	}
	e := &cacheEntry{key: key}
	// Fire the singleflight with the pre-built reasoner: a later Get joins
	// this completed Once instead of running its cold build closure (which
	// would silently overwrite the installed reasoner with a re-ground).
	e.once.Do(func() {
		e.r = r
		e.ready.Store(true)
	})
	c.insert(e)
}

// InvalidateSpec drops the cached reasoner of the given spec id; called
// on spec deletion (updates replace it on insert, but deletion should
// release memory promptly).
func (c *ReasonerCache) InvalidateSpec(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		c.ll.Remove(el)
		delete(c.items, id)
	}
}

// Stats returns (entries, capacity, hits, misses, patched, regrounded).
func (c *ReasonerCache) Stats() (entries, capacity int, hits, misses, patched, regrounded uint64) {
	c.mu.Lock()
	entries = c.ll.Len()
	c.mu.Unlock()
	return entries, c.cap, c.hits.Load(), c.misses.Load(), c.patched.Load(), c.regrounded.Load()
}
