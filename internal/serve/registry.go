package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/partition"
	"github.com/midas-hpc/midas/internal/store"
)

// errUnknownGraph distinguishes "no such name" (a client error, 404)
// from a store load failure (a server problem) at the API layer.
var errUnknownGraph = errors.New("unknown graph")

// graphEntry is one registered graph: loaded once (or mapped lazily
// from the store on first query), partitioned lazily per (scheme,
// parts) and reused by every query that names it — the
// "persistent cluster" half of the service (the other half being the
// shared DP arena and the process-global coefficient tables, which are
// warm for any graph).
type graphEntry struct {
	Name     string
	Digest   uint64
	Vertices int
	Edges    int

	// G is the resident graph. For store-backed entries it is nil
	// until the first query (ensure maps it); every consumer reaches
	// the entry through registry.get, which runs ensure first, so
	// execution paths may read G directly.
	G *graph.Graph

	st     *store.Store  // nil for purely in-memory entries
	loadMu sync.Mutex    // guards the lazy load
	handle *store.Handle // pins the mapping for the entry's lifetime

	mu    sync.Mutex
	parts map[partKey]*partition.Partition
}

type partKey struct {
	scheme partition.Scheme
	n1     int
}

// partSeedSalt separates the partition seed from the graph digest it is
// derived from.
const partSeedSalt = 0x70a3d70a3d70a3d7

// ensure materializes G. For store-backed entries the first call maps
// the repository file (zero-copy; pages fault in as the DP touches
// them) and pins the handle until the registry releases it.
func (e *graphEntry) ensure() error {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	if e.G != nil {
		return nil
	}
	h, err := e.st.Acquire(e.Digest)
	if err != nil {
		return fmt.Errorf("graph %q: %w", e.Name, err)
	}
	e.handle = h
	e.G = h.Graph()
	return nil
}

// release drops the entry's store pin. Only safe once no query can be
// running on e.G — the server calls it after the drain in Shutdown.
func (e *graphEntry) release() {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	if e.handle != nil {
		e.handle.Close()
		e.handle = nil
		e.G = nil
	}
}

// partitionFor returns the cached partition for (scheme, n1), loading
// the store's persisted artifact when one exists and computing (then
// persisting) otherwise. The partitioner's seed is a function of the
// graph's content digest, not of any query: answers do not depend on
// the partition (distributed ≡ sequential), so every query of the graph
// shares one partition and the store keeps one artifact per (scheme,
// n1) — on every replica alike. The returned partition's Members cache
// is materialized before it is published, so rank goroutines may share
// the pointer concurrently (core.Config.Part's contract).
func (e *graphEntry) partitionFor(scheme partition.Scheme, n1 int) (*partition.Partition, error) {
	key := partKey{scheme: scheme, n1: n1}
	seed := e.Digest ^ partSeedSalt
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.parts[key]; ok {
		return p, nil
	}
	skey := store.PartKey{Scheme: scheme, Parts: n1, Seed: seed}
	if e.st != nil {
		if p, err := e.st.GetPartition(e.Digest, skey); err == nil {
			e.publishLocked(key, p)
			return p, nil
		}
		// ErrNoPartition or a corrupt artifact: recompute either way —
		// a rotted derived file must never fail a query.
	}
	p, err := partition.ByScheme(scheme, e.G, n1, seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.Parts; i++ {
		p.Members(i)
	}
	if e.st != nil {
		// Best-effort write-through; the artifact is a pure cache.
		_ = e.st.PutPartition(e.Digest, skey, p)
	}
	e.publishLocked(key, p)
	return p, nil
}

func (e *graphEntry) publishLocked(key partKey, p *partition.Partition) {
	if e.parts == nil {
		e.parts = make(map[partKey]*partition.Partition)
	}
	e.parts[key] = p
}

// registry is the named-graph table behind /v1/graphs.
type registry struct {
	mu sync.RWMutex
	m  map[string]*graphEntry
}

func newRegistry() *registry { return &registry{m: make(map[string]*graphEntry)} }

// get resolves a name and materializes the entry's graph (lazy mmap
// for store-backed entries). Every execution path obtains entries
// here, which is what makes direct e.G reads downstream safe.
func (r *registry) get(name string) (*graphEntry, error) {
	r.mu.RLock()
	e, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (load it via POST /v1/graphs first)", errUnknownGraph, name)
	}
	if err := e.ensure(); err != nil {
		return nil, err
	}
	return e, nil
}

// peek resolves a name WITHOUT materializing the graph — identity and
// shape only, for placement decisions that must not force an mmap.
func (r *registry) peek(name string) (*graphEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.m[name]
	return e, ok
}

// add registers g under name, replacing any previous graph of that
// name (and its partition cache). A replaced store-backed entry keeps
// its mapping pinned — an in-flight query may still be reading it; the
// bytes come back at shutdown (or process exit).
func (r *registry) add(name string, g *graph.Graph, st *store.Store) *graphEntry {
	e := &graphEntry{
		Name: name, G: g, Digest: g.Digest(),
		Vertices: g.NumVertices(), Edges: g.NumEdges(),
		st: st,
	}
	r.mu.Lock()
	r.m[name] = e
	r.mu.Unlock()
	return e
}

// addStored registers a lazy entry for a graph already in the store:
// nothing is read or mapped until the first query names it. Shape
// comes from the manifest so listings stay IO-free.
func (r *registry) addStored(name string, ni store.NameInfo, st *store.Store) *graphEntry {
	e := &graphEntry{
		Name: name, Digest: ni.Digest,
		Vertices: ni.Vertices, Edges: ni.Edges,
		st: st,
	}
	r.mu.Lock()
	r.m[name] = e
	r.mu.Unlock()
	return e
}

func (r *registry) list() []*graphEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*graphEntry, 0, len(r.m))
	for _, e := range r.m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (r *registry) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// releaseAll drops every store pin. Called after the drain in
// Shutdown, when no query can be running.
func (r *registry) releaseAll() {
	for _, e := range r.list() {
		e.release()
	}
}
