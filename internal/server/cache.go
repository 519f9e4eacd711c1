package server

import (
	"bytes"
	"compress/lzw"
	"container/list"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"specmpk/internal/otrace"
	"specmpk/internal/simpoint"
)

// lru is the one value store both server caches are built on: a
// mutex-guarded map bounded by entry count, evicting the least recently used
// entry, with hit/miss/eviction counters. A capacity <= 0 disables it: every
// get misses and put stores nothing.
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*list.Element
	order   *list.List // of *lruEntry[K, V]; front = most recently used

	hits, misses, evictions atomic.Uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	return &lru[K, V]{max: max, entries: make(map[K]*list.Element), order: list.New()}
}

// get returns the value for key, refreshing its recency and counting the hit
// or miss.
func (c *lru[K, V]) get(key K) (V, bool) {
	v, ok := c.peek(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// peek is get without touching the hit/miss counters. A hit still refreshes
// recency.
func (c *lru[K, V]) peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// put stores val under key, evicting from the cold end while over capacity,
// and reports whether key was new. Re-putting a resident key only refreshes
// its recency: both callers store values that are identical per key by
// construction.
func (c *lru[K, V]) put(key K, val V) bool {
	if c.max <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return false
	}
	c.entries[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[K, V]).key)
		c.evictions.Add(1)
	}
	return true
}

// len returns the current entry count.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// packedResult is a finished result's canonical JSON, LZW-compressed. The
// result cache and every retained job record hold results this way: a
// full-run result packs from 4.25 KB (a 4.75 KB allocation) to about
// 2.3 KB, and a daemon retains up to RetainJobs finished jobs. LZW rather
// than flate because its coder state is 64 KB instead of over 1 MB, which
// would cost more than it saves at a few hundred retained results. raw
// restores the canonical bytes exactly, so everything served stays
// bit-identical.
type packedResult []byte

// packResult compresses canonical result bytes (nil stays nil).
func packResult(raw []byte) packedResult {
	if raw == nil {
		return nil
	}
	var buf bytes.Buffer
	buf.Grow(len(raw) / 2)
	w := lzw.NewWriter(&buf, lzw.LSB, 8)
	_, _ = w.Write(raw) // writes to a bytes.Buffer cannot fail
	_ = w.Close()
	return packedResult(bytes.Clone(buf.Bytes()))
}

// lzwReaders recycles decoders: every job reply and cache probe unpacks a
// result, and a fresh decoder is a 20 KB allocation.
var lzwReaders = sync.Pool{New: func() any { return lzw.NewReader(nil, lzw.LSB, 8) }}

// raw returns the canonical result bytes (nil for a nil result).
func (p packedResult) raw() []byte {
	if p == nil {
		return nil
	}
	r := lzwReaders.Get().(*lzw.Reader)
	r.Reset(bytes.NewReader(p), lzw.LSB, 8)
	defer lzwReaders.Put(r)
	var buf bytes.Buffer
	buf.Grow(3 * len(p))
	if _, err := io.Copy(&buf, r); err != nil {
		// packResult produced these bytes in this process; only a bug can
		// make them unreadable.
		panic(fmt.Sprintf("server: corrupt packed result: %v", err))
	}
	return buf.Bytes()
}

// resultCache is the content-addressed result store: packed canonical
// result bytes keyed by the job spec's api.JobSpec.Key hash. Results are a
// few KB of canonical JSON, so a few hundred entries cover a full
// policy×workload×config sweep.
//
// Because the key already folds in the simulator version and every default,
// a hit can be returned verbatim: it is bit-identical to what re-running the
// job would produce.
type resultCache struct {
	*lru[string, packedResult]
	// peerLookups/peerHits count GET /v1/cache/{key} probes from cluster
	// peers — kept apart from hits/misses so the local submit path's cache
	// statistics stay meaningful under cluster traffic.
	peerLookups, peerHits atomic.Uint64
}

func newResultCache(max int) *resultCache {
	return &resultCache{lru: newLRU[string, packedResult](max)}
}

// get returns the cached result for key, counting the hit or miss.
// An injected fault at server.cache.get degrades to a miss — a flaky cache
// must cost a re-simulation, never a failed request — and is recorded as an
// event on the submit path's cache.lookup span (nil-safe) so a chaos run's
// forced misses are reconstructable per request.
func (c *resultCache) get(key string, sp *otrace.Span) (packedResult, bool) {
	if err := fpCacheGet.Fire(); err != nil {
		sp.Event("fault_injected", "point", fpCacheGet.Name(), "error", err.Error())
		c.misses.Add(1)
		return nil, false
	}
	return c.lru.get(key)
}

// peek answers a cluster peer's cache probe: the cached result for key
// without counting into the submit path's hit/miss statistics and
// without firing the server.cache.get fault point (the peer's own
// cluster.peer.lookup seam covers injection on that path). A hit refreshes
// recency — a result other nodes keep asking for is worth keeping.
func (c *resultCache) peek(key string) (packedResult, bool) {
	c.peerLookups.Add(1)
	b, ok := c.lru.peek(key)
	if ok {
		c.peerHits.Add(1)
	}
	return b, ok
}

// put stores the result for key. An injected fault at
// server.cache.put skips the fill: the job still succeeds, the next
// identical spec just re-simulates. The returned disposition string is what
// the job span carries as its "cache" attribute.
func (c *resultCache) put(key string, b packedResult) string {
	switch {
	case fpCachePut.Fire() != nil:
		return "skipped_fault"
	case c.max <= 0:
		return "disabled"
	case c.lru.put(key, b):
		return "filled"
	}
	return "refreshed"
}

// profileCache holds sampled jobs' profiling products: immutable
// simpoint.Plans keyed by api.JobSpec.ProfileKey. Builds are single-flight —
// concurrent sampled jobs needing the same plan wait for one build instead
// of racing duplicate profiling passes. Build errors are returned to every
// waiter and never cached: a transiently unprofilable spec retries on the
// next submission.
type profileCache struct {
	*lru[string, *simpoint.Plan]
	mu      sync.Mutex // guards pending, and moving a key from it into lru
	pending map[string]*profileBuild
}

// profileBuild is one in-flight single-flight build.
type profileBuild struct {
	done chan struct{}
	plan *simpoint.Plan
	err  error
}

func newProfileCache(max int) *profileCache {
	return &profileCache{
		lru:     newLRU[string, *simpoint.Plan](max),
		pending: make(map[string]*profileBuild),
	}
}

// get returns the plan for key, building it with build on a miss. The second
// return reports whether the plan came from the cache (including waiting out
// another job's in-flight build) rather than from this call's own build. A
// disabled cache (capacity <= 0) builds on every call, without single-flight.
func (c *profileCache) get(key string, build func() (*simpoint.Plan, error)) (*simpoint.Plan, bool, error) {
	c.mu.Lock()
	if b, ok := c.pending[key]; ok {
		c.mu.Unlock()
		<-b.done
		if b.err != nil {
			return nil, false, b.err
		}
		// Sharing the winner's build is a hit: the profiling work was not
		// repeated for this job.
		c.hits.Add(1)
		return b.plan, true, nil
	}
	if p, ok := c.lru.get(key); ok {
		c.mu.Unlock()
		return p, true, nil
	}
	if c.max <= 0 {
		c.mu.Unlock()
		p, err := build()
		return p, false, err
	}
	b := &profileBuild{done: make(chan struct{})}
	c.pending[key] = b
	c.mu.Unlock()

	b.plan, b.err = build()
	c.mu.Lock()
	if b.err == nil {
		c.lru.put(key, b.plan)
	}
	delete(c.pending, key)
	c.mu.Unlock()
	close(b.done)
	return b.plan, false, b.err
}
