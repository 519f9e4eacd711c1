package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specmpk/internal/server/api"
	"specmpk/internal/simpoint"
)

// Run these under -race (make chaos): they exist to widen the window on the
// cache's lock discipline and the submit path's single-flight dedup.

// TestCacheHammerPutGetEvict pounds put/get from many goroutines against the
// shared LRU store, far smaller than the key space, forcing constant
// eviction. Any value a get returns must be exactly what was put under that
// key, and the entry count must respect the bound throughout.
func TestCacheHammerPutGetEvict(t *testing.T) {
	const (
		maxEntries = 8
		keySpace   = 64
		workers    = 16
		opsEach    = 2000
	)
	c := newLRU[string, string](maxEntries)
	payload := func(k int) string { return fmt.Sprintf("result-for-key-%03d", k) }

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := (w*31 + i*17) % keySpace
				key := fmt.Sprintf("key-%03d", k)
				if i%3 == 0 {
					c.put(key, payload(k))
				} else if v, ok := c.get(key); ok && v != payload(k) {
					errs <- fmt.Errorf("key %s returned %q, want %q", key, v, payload(k))
					return
				}
				if n := c.len(); n > maxEntries {
					errs <- fmt.Errorf("cache grew to %d entries, bound is %d", n, maxEntries)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := c.len(); n > maxEntries {
		t.Fatalf("final cache size %d exceeds bound %d", n, maxEntries)
	}
	gets := uint64(workers * (opsEach - (opsEach+2)/3)) // every i%3 != 0
	if got := c.hits.Load() + c.misses.Load(); got != gets {
		t.Fatalf("hits+misses = %d, want %d (every get counts once)", got, gets)
	}
}

// TestLRUOrderCountersAndRefresh pins the store's semantics: the least
// recently used entry is evicted, get counts hits and misses while peek
// counts nothing (both refresh recency), and re-putting a resident key
// refreshes it without replacing its value.
func TestLRUOrderCountersAndRefresh(t *testing.T) {
	c := newLRU[string, int](2)
	if !c.put("a", 1) || !c.put("b", 2) {
		t.Fatal("put of a new key reported not new")
	}
	if _, ok := c.get("a"); !ok { // a is now most recent
		t.Fatal("a missing")
	}
	c.put("c", 3) // evicts b
	if _, ok := c.peek("b"); ok {
		t.Fatal("b survived; the least recently used entry must go")
	}
	if _, ok := c.peek("a"); !ok { // a most recent again; c is oldest
		t.Fatal("a evicted despite recent use")
	}
	if c.put("c", 99) { // refresh: c most recent, value kept
		t.Fatal("re-put of a resident key reported new")
	}
	c.put("d", 4) // evicts a, the oldest after c's refresh
	if _, ok := c.peek("a"); ok {
		t.Fatal("re-put did not refresh c's recency")
	}
	if v, _ := c.peek("c"); v != 3 {
		t.Fatalf("re-put replaced the value: got %d, want 3", v)
	}
	if _, ok := c.get("zz"); ok {
		t.Fatal("hit on a never-put key")
	}
	if h, m, e := c.hits.Load(), c.misses.Load(), c.evictions.Load(); h != 1 || m != 1 || e != 2 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 1/1/2 (peek must not count)", h, m, e)
	}
	if n := c.len(); n != 2 {
		t.Fatalf("len %d, want 2", n)
	}
}

// TestLRUCapacityDisables: a capacity <= 0 stores nothing and every get is a
// counted miss.
func TestLRUCapacityDisables(t *testing.T) {
	for _, max := range []int{0, -1} {
		c := newLRU[string, int](max)
		if c.put("a", 1) {
			t.Fatalf("max %d: put stored into a disabled store", max)
		}
		if _, ok := c.get("a"); ok {
			t.Fatalf("max %d: get hit a disabled store", max)
		}
		if c.len() != 0 || c.misses.Load() != 1 || c.evictions.Load() != 0 {
			t.Fatalf("max %d: len=%d misses=%d evictions=%d, want 0/1/0",
				max, c.len(), c.misses.Load(), c.evictions.Load())
		}
	}
}

// blockedInProfileGet counts goroutines blocked on a channel receive inside
// profileCache.get.
func blockedInProfileGet() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, "(*profileCache).get") {
			n++
		}
	}
	return n
}

// TestProfileCacheFailedBuildSharedNotCached: concurrent callers of one key
// share a single build; when it fails, every waiter gets the error, nothing
// is cached, and the next call builds again.
func TestProfileCacheFailedBuildSharedNotCached(t *testing.T) {
	const waiters = 8
	c := newProfileCache(4)
	boom := errors.New("unprofilable")
	var builds atomic.Int32
	release := make(chan struct{})
	failing := func() (*simpoint.Plan, error) {
		builds.Add(1)
		<-release
		return nil, boom
	}

	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, _, err := c.get("k", failing)
			errs <- err
		}()
	}
	// Release the build only once every caller is blocked inside get: the
	// builder in its build, the rest parked on the pending build.
	deadline := time.Now().Add(10 * time.Second)
	for blockedInProfileGet() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers blocked in profileCache.get", blockedInProfileGet(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("waiter got %v, want the build's error", err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1 (single-flight)", n)
	}
	if c.len() != 0 || c.hits.Load() != 0 {
		t.Fatalf("failed build left len=%d hits=%d, want 0/0", c.len(), c.hits.Load())
	}

	plan := &simpoint.Plan{}
	got, cached, err := c.get("k", func() (*simpoint.Plan, error) { builds.Add(1); return plan, nil })
	if err != nil || cached || got != plan || builds.Load() != 2 {
		t.Fatalf("retry after failure: plan=%p cached=%v err=%v builds=%d, want a fresh build",
			got, cached, err, builds.Load())
	}
	if got, cached, _ := c.get("k", failing); !cached || got != plan {
		t.Fatal("successful build was not cached")
	}
}

// TestCacheDedupUnderPressure drives many concurrent submitters over a few
// distinct specs through a server whose cache is smaller than the spec set,
// so in-flight dedup, cache hits, and evictions all race. Every submission
// must land on a done job with the same canonical bytes per spec.
func TestCacheDedupUnderPressure(t *testing.T) {
	const (
		distinctSpecs = 6
		submitters    = 36
	)
	s := newTestServer(t, Options{Workers: 4, QueueSize: 256, CacheEntries: 2, EventInterval: 1000})

	var mu sync.Mutex
	canonical := make(map[int]string) // spec index -> result bytes
	var wg sync.WaitGroup
	errs := make([]error, submitters)
	wg.Add(submitters)
	for i := 0; i < submitters; i++ {
		go func(i int) {
			defer wg.Done()
			si := i % distinctSpecs
			info, err := s.Submit(uniqueSpec(si, 5_000))
			if err != nil {
				errs[i] = fmt.Errorf("submit %d: %v", i, err)
				return
			}
			final := waitJob(t, s, info.ID)
			if final.State != api.StateDone {
				errs[i] = fmt.Errorf("job %s: state %s (%s)", info.ID, final.State, final.Error)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := canonical[si]; !ok {
				canonical[si] = string(final.Result)
			} else if prev != string(final.Result) {
				errs[i] = fmt.Errorf("spec %d: divergent results under dedup/eviction pressure", si)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := s.cache.len(); n > 2 {
		t.Fatalf("cache size %d exceeds configured bound 2", n)
	}
}

// TestCancelledJobNeverPoisonsCache cancels a running job and requires that
// nothing it produced (it produced nothing) reaches the cache: a later
// lookup of the same spec must miss.
func TestCancelledJobNeverPoisonsCache(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 10_000})
	spec := spinSpec(1 << 40)
	info, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := s.Job(info.ID)
		if cur.State == api.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := s.Cancel(info.ID); !ok {
		t.Fatal("cancel failed")
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}

	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := norm.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cache.get(key, nil); ok {
		t.Fatal("cancelled job's key answers from the cache")
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("cache holds %d entries after a lone cancelled job", n)
	}
}

// TestCachePackedResultRoundTrip pins the packed result store: packing a
// real canonical result and unpacking it gives back the exact bytes in
// well under the raw size, nil stays nil, and packing is safe from many
// goroutines at once (run under -race by make chaos).
func TestCachePackedResultRoundTrip(t *testing.T) {
	if packResult(nil) != nil || packedResult(nil).raw() != nil {
		t.Fatal("nil result did not stay nil")
	}
	s := newTestServer(t, Options{Workers: 1})
	info, err := s.Submit(api.JobSpec{Workload: "548.exchange2_r", Mode: "specmpk", MaxCycles: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	raw := waitJob(t, s, info.ID).Result
	if len(raw) == 0 {
		t.Fatal("job produced no result")
	}
	p := packResult(raw)
	if !bytes.Equal(p.raw(), raw) {
		t.Fatal("packed result does not unpack to the canonical bytes")
	}
	if 3*len(p) > 2*len(raw) {
		t.Fatalf("packed result is %d bytes for %d raw, want at most two thirds", len(p), len(raw))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 100; i++ {
				b := make([]byte, rng.Intn(8192))
				for j := range b {
					b[j] = byte(rng.Intn(256))
				}
				if got := packResult(b).raw(); !bytes.Equal(got, b) {
					t.Errorf("goroutine %d: round trip of %d bytes changed them", g, len(b))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
