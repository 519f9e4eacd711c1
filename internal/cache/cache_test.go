package cache

import (
	"math/rand"
	"testing"
	"unsafe"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B, backed by 100-cycle memory.
	return New(Config{Name: "t", SizeB: 512, Ways: 2, LineB: 64, Latency: 3},
		&Memory{Latency: 100})
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if lat := c.Access(0x1000, false); lat != 103 {
		t.Fatalf("cold miss latency = %d, want 103", lat)
	}
	if lat := c.Access(0x1008, false); lat != 3 {
		t.Fatalf("same-line hit latency = %d, want 3", lat)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallCache()
	// Three distinct lines mapping to set 0 (line 64B, 4 sets → stride 256).
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b (LRU)
	if !c.Probe(a) || !c.Probe(d) {
		t.Fatal("a and d must be resident")
	}
	if c.Probe(b) {
		t.Fatal("b should have been evicted")
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats.Evictions)
	}
}

func TestDirtyWriteback(t *testing.T) {
	mem := &Memory{Latency: 100}
	c := New(Config{Name: "t", SizeB: 512, Ways: 2, LineB: 64, Latency: 3}, mem)
	c.Access(0, true)    // dirty line in set 0
	c.Access(256, false) // fills way 2
	c.Access(512, false) // evicts dirty line → writeback
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
	// mem sees 3 fills + 1 writeback.
	if mem.Accesses != 4 {
		t.Fatalf("memory accesses = %d", mem.Accesses)
	}
}

func TestFlushLine(t *testing.T) {
	c := smallCache()
	c.Access(0x40, false)
	if !c.Probe(0x40) {
		t.Fatal("line should be resident")
	}
	c.FlushLine(0x40)
	if c.Probe(0x40) {
		t.Fatal("line should be flushed")
	}
	if c.Stats.Flushes != 1 {
		t.Fatalf("flushes = %d", c.Stats.Flushes)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := smallCache()
	for i := 0; i < 8; i++ {
		c.Access(uint64(i)*64, false)
	}
	c.InvalidateAll()
	for i := 0; i < 8; i++ {
		if c.Probe(uint64(i) * 64) {
			t.Fatal("line survived InvalidateAll")
		}
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := smallCache()
	c.Access(0x80, false)
	h, m := c.Stats.Hits, c.Stats.Misses
	c.Probe(0x80)
	c.Probe(0xdead00)
	if c.Stats.Hits != h || c.Stats.Misses != m {
		t.Fatal("Probe must not change stats")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1}
	if s.Accesses() != 4 {
		t.Fatal("accesses")
	}
	if s.MissRate() != 0.25 {
		t.Fatalf("miss rate %f", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("idle miss rate must be 0")
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "x", SizeB: 512, Ways: 2, LineB: 48, Latency: 1}, // non-pow2 line
		{Name: "x", SizeB: 384, Ways: 2, LineB: 64, Latency: 1}, // non-pow2 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v must panic", cfg)
				}
			}()
			New(cfg, &Memory{Latency: 1})
		}()
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold load: L1D(5) + L2(15) + L3(40) + mem(110) = 170.
	if lat := h.LoadLatency(0x1000); lat != 170 {
		t.Fatalf("cold load = %d, want 170", lat)
	}
	if lat := h.LoadLatency(0x1000); lat != 5 {
		t.Fatalf("warm load = %d, want 5", lat)
	}
	// Evict from L1 only; line still in L2 → 5+15 = 20.
	h.L1D.FlushLine(0x1000)
	h2 := NewHierarchy(DefaultHierarchyConfig())
	h2.LoadLatency(0x1000)
	h2.L1D.flushOnlyThisLevel(0x1000)
	if lat := h2.LoadLatency(0x1000); lat != 20 {
		t.Fatalf("L2 hit = %d, want 20", lat)
	}
}

// flushOnlyThisLevel is a test helper that removes the line at just one level.
func (c *Cache) flushOnlyThisLevel(paddr uint64) {
	set, tag := c.set(paddr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].holds(tag) {
			c.lines[base+w].tag &^= lineValid
		}
	}
}

func TestHierarchyFlushRemovesEverywhere(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.LoadLatency(0x2000)
	h.Flush(0x2000)
	if lat := h.LoadLatency(0x2000); lat != 170 {
		t.Fatalf("post-flush load = %d, want full miss 170", lat)
	}
}

func TestHierarchyFetchPath(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	if lat := h.FetchLatency(0x3000); lat != 170 {
		t.Fatalf("cold fetch = %d", lat)
	}
	if lat := h.FetchLatency(0x3000); lat != 5 {
		t.Fatalf("warm fetch = %d", lat)
	}
	// Shared L2: data access to the same line hits in L2 (5+15).
	if lat := h.LoadLatency(0x3000); lat != 20 {
		t.Fatalf("data load of fetched line = %d, want 20", lat)
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{})
	if h.L1D.LineBytes() != 64 || h.L1D.Sets() != 64 || h.L1D.Ways() != 12 {
		t.Fatalf("unexpected default geometry: sets=%d ways=%d", h.L1D.Sets(), h.L1D.Ways())
	}
	if h.L1D.Name() != "L1D" {
		t.Fatal("name")
	}
}

// Property: after any access sequence, each set holds at most `ways` valid
// lines and the most recently accessed address is always resident.
func TestResidencyInvariant(t *testing.T) {
	c := smallCache()
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		addr := uint64(r.Intn(64)) * 64
		c.Access(addr, r.Intn(2) == 0)
		if !c.Probe(addr) {
			t.Fatalf("just-accessed address %x not resident", addr)
		}
	}
	for s := 0; s < c.sets; s++ {
		valid := 0
		for w := 0; w < c.ways; w++ {
			if c.lines[s*c.ways+w].valid() {
				valid++
			}
		}
		if valid > c.ways {
			t.Fatal("set overflow")
		}
	}
}

func TestNextLinePrefetch(t *testing.T) {
	mem := &Memory{Latency: 100}
	c := New(Config{Name: "p", SizeB: 4096, Ways: 4, LineB: 64, Latency: 3, NextLinePrefetch: true}, mem)
	c.Access(0x1000, false) // miss; should prefetch 0x1040
	if c.Stats.Prefetches != 1 {
		t.Fatalf("prefetches = %d", c.Stats.Prefetches)
	}
	if !c.Probe(0x1040) {
		t.Fatal("next line should be resident")
	}
	// The prefetched line hits on demand.
	if lat := c.Access(0x1040, false); lat != 3 {
		t.Fatalf("prefetched line latency %d", lat)
	}
	// Re-prefetching a resident line is a no-op.
	before := c.Stats.Prefetches
	c.Access(0x1000, false) // hit: no prefetch trigger
	if c.Stats.Prefetches != before {
		t.Fatal("hits must not prefetch")
	}
}

func TestPrefetchSequentialStream(t *testing.T) {
	mem := &Memory{Latency: 100}
	c := New(Config{Name: "p", SizeB: 8192, Ways: 4, LineB: 64, Latency: 3, NextLinePrefetch: true}, mem)
	misses := 0
	for i := 0; i < 32; i++ {
		if lat := c.Access(uint64(i)*64, false); lat > 3 {
			misses++
		}
	}
	// A sequential walk with next-line prefetch should miss roughly every
	// other line at worst (first touch triggers the next line).
	if misses > 2 {
		t.Fatalf("sequential misses = %d with prefetching", misses)
	}
	off := New(Config{Name: "np", SizeB: 8192, Ways: 4, LineB: 64, Latency: 3}, &Memory{Latency: 100})
	offMisses := 0
	for i := 0; i < 32; i++ {
		if lat := off.Access(uint64(i)*64, false); lat > 3 {
			offMisses++
		}
	}
	if offMisses != 32 {
		t.Fatalf("baseline misses = %d", offMisses)
	}
}

// TestLineIsSixteenBytes pins the line layout: the flags live in the tag's
// free top bits, so the L3 alone (32768 lines) costs 512 KB, not 768 KB.
func TestLineIsSixteenBytes(t *testing.T) {
	if sz := unsafe.Sizeof(line{}); sz != 16 {
		t.Fatalf("cache line state is %d bytes, want 16", sz)
	}
}

// TestLineFlagsDoNotAliasTags checks that the dirty and prefetch flags never
// affect tag matching: a dirty line still hits, a clean eviction writes
// nothing back, and a dirty one writes back exactly once.
func TestLineFlagsDoNotAliasTags(t *testing.T) {
	mem := &Memory{Latency: 100}
	c := New(Config{Name: "t", SizeB: 128, Ways: 1, LineB: 64, Latency: 3}, mem)
	const a, b = 0x1000, 0x1080 // same set, different tags
	c.Access(a, true)           // miss, install dirty
	if lat := c.Access(a, false); lat != 3 {
		t.Fatalf("dirty line missed: latency %d", lat)
	}
	c.Access(b, false) // evicts the dirty line
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d after evicting a dirty line, want 1", c.Stats.Writebacks)
	}
	c.Access(a, false) // evicts the clean line
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d after evicting a clean line, want 1", c.Stats.Writebacks)
	}
	if !c.Probe(a) || c.Probe(b) {
		t.Fatal("residency wrong after evictions")
	}
}
