package service

import (
	"container/list"
	"encoding/json"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Store is the persistence interface behind the in-memory tiers: a
// content-addressed blob store. Puts are write-through and best-effort
// (the authoritative copy is the completed run in memory; a store that
// drops a blob only costs a future re-run); Gets back memory misses and
// their hits are promoted into the LRU.
//
// Implementations must be safe for concurrent use and must return the
// exact bytes previously Put for the key — the byte-identical-replay
// contract of the cache rides on it. internal/service/diskcache is the
// disk implementation; a shared directory makes it a cluster-wide store.
type Store interface {
	Get(key string) ([]byte, bool)
	Put(key string, raw []byte)
}

// tier is a memory LRU over an optional persistent Store: a memory miss
// falls back to the Store, a blob found there is decoded and promoted, and
// a put is written through. Both in-process tiers are this one type — the
// result cache holds canonical result JSON, the warm-start tier holds boot
// snapshots — sharing one Store under disjoint key namespaces.
//
// diskcache's own LRU stays a separate structure on purpose: it evicts
// against a byte budget, removes files as a side effect and reconciles
// with other processes' writes, so sharing would make this code branch on
// its caller.
type tier[V any] struct {
	mu    sync.Mutex
	max   int        // memory entries; <= 0 disables the memory tier
	store Store      // nil = memory only
	ns    string     // key namespace inside the Store
	ll    *list.List // front = most recently used; values are *tierEntry[V]
	byKey map[string]*list.Element
	// encode and decode are the value's Store form. decode reporting false
	// means the blob is unusable and counts as absent (the run recomputes
	// and its put overwrites it).
	encode func(V) []byte
	decode func(key string, raw []byte) (V, bool)

	hits, storeHits, misses *obs.Counter // storeHits may be nil
	entries                 *obs.Gauge   // may be nil
}

type tierEntry[V any] struct {
	key string
	val V
}

// newTier builds a tier without metrics; the caller names its series.
func newTier[V any](max int, store Store, ns string, encode func(V) []byte, decode func(key string, raw []byte) (V, bool)) *tier[V] {
	return &tier[V]{max: max, store: store, ns: ns, encode: encode, decode: decode, ll: list.New(), byKey: map[string]*list.Element{}}
}

// get resolves key, marking the entry most-recently-used. A Store hit
// counts as both a hit and a store hit.
func (c *tier[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.hits.Inc()
		c.ll.MoveToFront(el)
		return el.Value.(*tierEntry[V]).val, true
	}
	if c.store != nil {
		if raw, ok := c.store.Get(c.ns + key); ok {
			if v, ok := c.decode(key, raw); ok {
				c.hits.Inc()
				c.storeHits.Inc()
				c.insertLocked(key, v)
				return v, true
			}
		}
	}
	c.misses.Inc()
	var zero V
	return zero, false
}

// put inserts (or refreshes) a value, evicting from the LRU tail past
// capacity, and writes it through to the Store when there is one.
// Deterministic runs make refreshes idempotent: a racing duplicate run
// computes the identical value, so last-writer-wins is safe.
func (c *tier[V]) put(key string, v V) {
	c.mu.Lock()
	c.insertLocked(key, v)
	c.mu.Unlock()
	if c.store != nil {
		c.store.Put(c.ns+key, c.encode(v))
	}
}

func (c *tier[V]) insertLocked(key string, v V) {
	if c.max <= 0 {
		return
	}
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*tierEntry[V]).val = v
		return
	}
	c.byKey[key] = c.ll.PushFront(&tierEntry[V]{key, v})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byKey, tail.Value.(*tierEntry[V]).key)
	}
	c.entries.Set(int64(c.ll.Len()))
}

// contains reports memory residency without touching hit/miss accounting
// or LRU order — the sweep capacity pre-check must not distort cache
// metrics. The Store is deliberately not consulted: a disk hit still
// resolves at admit time, the pre-check just stays conservative about
// queue slots.
func (c *tier[V]) contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}

// resident snapshots the memory tier, most recently used first.
func (c *tier[V]) resident() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*tierEntry[V]).val)
	}
	return out
}

// newResultCache builds the content-addressed cache of completed runs,
// holding up to max results in memory. Keys are JobKey values: runs are
// deterministic, so a key fully addresses the canonical result JSON
// marshaled once at run completion, and a hit is served without
// simulating. Cached bytes are read-only: every holder only ever writes
// them to a response.
func newResultCache(max int, store Store, tel *obs.Telemetry) *tier[[]byte] {
	c := newTier(max, store, "", func(raw []byte) []byte { return raw }, func(_ string, raw []byte) ([]byte, bool) {
		var r sim.Result
		return raw, json.Unmarshal(raw, &r) == nil
	})
	c.hits = tel.Counter("service_cache_hits_total")
	c.storeHits = tel.Counter("service_cache_store_hits_total")
	c.misses = tel.Counter("service_cache_misses_total")
	c.entries = tel.Gauge("service_cache_entries")
	return c
}
