package server

import (
	"fmt"
	"regexp"
	"sort"
	"sync"

	"currency/internal/parse"
	"currency/internal/spec"
	"currency/internal/tractable"
)

// Entry is one registered specification version. Entries are immutable
// once published: updating a spec id creates a new Entry with a bumped
// Version, so readers holding an older Entry (or a reasoner grounded from
// it) are never invalidated mid-request. The File (and the Spec inside it)
// must therefore never be mutated — decision procedures that extend
// specifications (CPP/BCP) clone first; see the concurrency notes on
// core.Reasoner.
type Entry struct {
	ID      string
	Version int
	File    *parse.File

	source struct {
		once sync.Once
		text string
	}
	// ptime and relaxed are the Section-6 views of File.Spec and of its
	// constraint-relaxed form, each built on first use. An Entry is never
	// mutated and a PATCH publishes a new one, so a view cannot go stale.
	ptime, relaxed lazyView
}

// Source returns the canonical textual form of the entry: File
// re-marshaled, so GET always returns a form that parses back. It is
// rendered on first use rather than at publish time, which keeps every
// registry write O(1) in the size of the spec.
func (e *Entry) Source() string {
	e.source.once.Do(func() { e.source.text = parse.Marshal(e.File.Spec, e.File.Queries...) })
	return e.source.text
}

// lazyView builds a tractable view at most once.
type lazyView struct {
	once sync.Once
	v    *tractable.View
	err  error
}

func (l *lazyView) get(s *spec.Spec) (*tractable.View, error) {
	l.once.Do(func() { l.v, l.err = tractable.NewView(s) })
	return l.v, l.err
}

// view returns the PTIME route's view of the entry's constraint-free
// specification.
func (e *Entry) view() (*tractable.View, error) { return e.ptime.get(e.File.Spec) }

// relaxedView returns the view of the entry's specification with its
// denial constraints dropped, which degraded answers are read from.
func (e *Entry) relaxedView() (*tractable.View, error) {
	relaxed := *e.File.Spec
	relaxed.Constraints = nil
	return e.relaxed.get(&relaxed)
}

// Registry is the versioned spec store. All methods are safe for
// concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	// versions is monotonic per id and survives deletion, so a deleted
	// and re-registered id never reuses a version — reasoner-cache keys
	// embed (id, version) and must never alias different specs.
	versions map[string]int
	nextID   int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*Entry), versions: make(map[string]int)}
}

// validID matches ids usable as a single URL path segment — anything else
// would register fine but be unreachable by the {id}-addressed endpoints.
var validID = regexp.MustCompile(`^[A-Za-z0-9._~-]+$`)

// Put parses and validates source and registers it under id, assigning a
// fresh id when empty. Registering an existing id replaces its
// specification and bumps the version.
func (g *Registry) Put(id, source string) (*Entry, error) {
	if id != "" && !validID.MatchString(id) {
		return nil, fmt.Errorf("invalid spec id %q (want one URL path segment: letters, digits, '.', '_', '~', '-')", id)
	}
	f, err := parse.ParseFile(source)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if id == "" {
		for {
			g.nextID++
			id = fmt.Sprintf("s%d", g.nextID)
			if _, taken := g.entries[id]; !taken {
				break
			}
		}
	}
	g.versions[id]++
	e := &Entry{ID: id, Version: g.versions[id], File: f}
	g.entries[id] = e
	return e, nil
}

// ErrVersionConflict is returned by Publish when the caller's base
// version no longer matches the registered one (a concurrent update won).
var ErrVersionConflict = fmt.Errorf("spec version conflict")

// InstallReplica publishes a full replicated copy of a spec at exactly
// the owner-assigned version. Stale frames (version <= the registered
// one) are ignored and the current entry returned — replication may
// deliver a full sync that a faster delta already superseded. Unlike
// Put, versions come from the owner, so the per-id monotonic counter is
// raised to match instead of bumped.
func (g *Registry) InstallReplica(id, source string, version int) (*Entry, error) {
	if version < 1 {
		return nil, fmt.Errorf("replica install for %q at version %d", id, version)
	}
	f, err := parse.ParseFile(source)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if cur, ok := g.entries[id]; ok && cur.Version >= version {
		return cur, nil
	}
	if g.versions[id] < version {
		g.versions[id] = version
	}
	e := &Entry{ID: id, Version: version, File: f}
	g.entries[id] = e
	return e, nil
}

// Publish installs a patched specification for id at version if the
// registered version still equals base — the optimistic concurrency
// check that keeps two concurrent patches from silently dropping one
// delta. The spec's owner publishes at base+1; a follower at the
// version the owner assigned. Publishing is a pointer swap: the
// canonical source is rendered later, on first use, so nothing under
// the lock scales with the spec.
func (g *Registry) Publish(id string, base, version int, f *parse.File) (*Entry, error) {
	if version <= base {
		return nil, fmt.Errorf("publishing %q must advance the version: %d -> %d", id, base, version)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	cur, ok := g.entries[id]
	if !ok {
		return nil, fmt.Errorf("no spec %q", id)
	}
	if cur.Version != base {
		return nil, fmt.Errorf("%w: spec %q is at version %d, patch based on %d",
			ErrVersionConflict, id, cur.Version, base)
	}
	if g.versions[id] < version {
		g.versions[id] = version
	}
	e := &Entry{ID: id, Version: version, File: f}
	g.entries[id] = e
	return e, nil
}

// Versions returns the registry's version vector: every registered spec
// id mapped to its current version.
func (g *Registry) Versions() map[string]int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[string]int, len(g.entries))
	for id, e := range g.entries {
		out[id] = e.Version
	}
	return out
}

// Get returns the current entry for id.
func (g *Registry) Get(id string) (*Entry, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.entries[id]
	return e, ok
}

// Delete removes id, reporting whether it existed.
func (g *Registry) Delete(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.entries[id]
	delete(g.entries, id)
	return ok
}

// List returns the current entries sorted by id.
func (g *Registry) List() []*Entry {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Entry, 0, len(g.entries))
	for _, e := range g.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len reports the number of registered specs.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entries)
}
