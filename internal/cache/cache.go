// Package cache implements the timing model of a multi-level set-associative
// cache hierarchy with LRU replacement, write-back/write-allocate policy,
// CLFLUSH support, and a fixed-latency DRAM backend. The hierarchy tracks
// tag state only; data lives in the simulator's physical memory.
//
// The state is functional in the architectural sense but *micro*architecturally
// observable: speculative accesses that later squash still install lines,
// which is exactly the side channel the flush+reload experiment (Fig. 13)
// measures.
package cache

import (
	"fmt"
	"strings"

	"specmpk/internal/stats"
)

// Stats accumulates per-cache access counts.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Flushes    uint64
	Prefetches uint64
}

// Accesses returns hits+misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns the fraction of accesses that missed (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses())
}

// line is one cache line's tag state in 16 bytes. tag holds the block
// address (physical address >> line bits, so its top bits are always zero
// for lines of 8 bytes or more) with the line's flags folded into those
// free top bits.
type line struct {
	tag uint64 // block address | lineValid | lineDirty | linePf
	lru uint64 // larger = more recently used
}

// Line flags, stored in the top bits of line.tag.
const (
	lineValid = 1 << 63
	lineDirty = 1 << 62
	linePf    = 1 << 61 // installed by the prefetcher, not yet demand-hit

	lineFlags = lineValid | lineDirty | linePf
)

// valid reports whether the line holds a block.
func (l *line) valid() bool { return l.tag&lineValid != 0 }

// holds reports whether the line is valid and holds block tag.
func (l *line) holds(tag uint64) bool { return l.tag&^(lineDirty|linePf) == tag|lineValid }

// block returns the line's block address without its flags.
func (l *line) block() uint64 { return l.tag &^ lineFlags }

// Cache is one level of the hierarchy.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	latency  int // roundtrip cycles charged on a hit at this level
	lines    []line
	tick     uint64
	next     Level // next level, or nil if backed by memory
	prefetch bool
	Stats    Stats
}

// Level is anything that can service a miss: another Cache or Memory.
type Level interface {
	// access services a physical-address access and returns the total
	// latency incurred at this level and below (excluding the requester's
	// own hit latency).
	access(paddr uint64, write bool) int
	// flushLine removes the line containing paddr at this level and below.
	flushLine(paddr uint64)
	// invalidateAll empties this level and below.
	invalidateAll()
}

// Memory is the fixed-latency DRAM backend terminating the hierarchy.
type Memory struct {
	Latency  int
	Accesses uint64
}

func (m *Memory) access(uint64, bool) int { m.Accesses++; return m.Latency }
func (m *Memory) flushLine(uint64)        {}
func (m *Memory) invalidateAll()          {}

// Config describes one cache level.
type Config struct {
	Name    string
	SizeB   int // total capacity in bytes
	Ways    int
	LineB   int // line size in bytes (power of two)
	Latency int // roundtrip hit latency in cycles
	// NextLinePrefetch installs line N+1 alongside every demand miss of
	// line N (off the critical path, so no latency is charged). An
	// extension over the paper's Table III machine; off by default and
	// exercised by the prefetch ablation bench.
	NextLinePrefetch bool
}

// New builds a cache level in front of next.
func New(cfg Config, next Level) *Cache {
	if cfg.LineB <= 0 || cfg.LineB&(cfg.LineB-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineB))
	}
	sets := cfg.SizeB / (cfg.Ways * cfg.LineB)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	if cfg.LineB < 8 {
		panic(fmt.Sprintf("cache %s: line size %d below 8 bytes", cfg.Name, cfg.LineB))
	}
	lb := uint(0)
	for 1<<lb != cfg.LineB {
		lb++
	}
	return &Cache{
		name:     cfg.Name,
		sets:     sets,
		ways:     cfg.Ways,
		lineBits: lb,
		latency:  cfg.Latency,
		lines:    make([]line, sets*cfg.Ways),
		next:     next,
		prefetch: cfg.NextLinePrefetch,
	}
}

// Name returns the level's configured name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

func (c *Cache) set(paddr uint64) (int, uint64) {
	blk := paddr >> c.lineBits
	return int(blk) & (c.sets - 1), blk
}

// Access performs a timed access, installing the line on a miss. The return
// value is the total latency in cycles including this level's hit latency.
func (c *Cache) Access(paddr uint64, write bool) int {
	return c.access(paddr, write)
}

func (c *Cache) access(paddr uint64, write bool) int {
	c.tick++
	set, tag := c.set(paddr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.holds(tag) {
			c.Stats.Hits++
			l.lru = c.tick
			if write {
				l.tag |= lineDirty
			}
			if l.tag&linePf != 0 {
				// Tagged prefetching: the first demand hit on a
				// prefetched line keeps the stream running.
				l.tag &^= linePf
				c.prefetchLine((tag + 1) << c.lineBits)
			}
			return c.latency
		}
	}
	// Miss: fetch from below, then install with LRU victim selection.
	c.Stats.Misses++
	lat := c.latency + c.next.access(paddr, false)
	v := c.victim(base)
	if v.valid() {
		c.Stats.Evictions++
		if v.tag&lineDirty != 0 {
			// Write-back the victim; charged to the lower level's counters
			// but not to this access's latency (handled off the critical
			// path by a write buffer).
			c.Stats.Writebacks++
			c.next.access(victimAddr(v.block(), c.lineBits), true)
		}
	}
	*v = line{tag: tag | lineValid, lru: c.tick}
	if write {
		v.tag |= lineDirty
	}
	if c.prefetch {
		c.prefetchLine((tag + 1) << c.lineBits)
	}
	return lat
}

// prefetchLine installs a line without charging latency or polluting the
// demand hit/miss statistics.
func (c *Cache) prefetchLine(paddr uint64) {
	set, tag := c.set(paddr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].holds(tag) {
			return // already resident
		}
	}
	c.Stats.Prefetches++
	c.next.access(paddr, false)
	v := c.victim(base)
	if v.valid() {
		c.Stats.Evictions++
		if v.tag&lineDirty != 0 {
			c.Stats.Writebacks++
			c.next.access(victimAddr(v.block(), c.lineBits), true)
		}
	}
	// Install with the lowest recency so useless prefetches evict first.
	*v = line{tag: tag | lineValid | linePf}
}

// victim picks the line to replace in the set starting at base: the first
// invalid way after way 0, else the least recently used way.
func (c *Cache) victim(base int) *line {
	victim := base
	for w := 1; w < c.ways; w++ {
		if !c.lines[base+w].valid() {
			victim = base + w
			break
		}
		if c.lines[base+w].lru < c.lines[victim].lru {
			victim = base + w
		}
	}
	return &c.lines[victim]
}

func victimAddr(tag uint64, lineBits uint) uint64 { return tag << lineBits }

// Probe reports whether the line containing paddr is present at this level,
// without perturbing LRU or stats. The attack harness uses the simulator's
// timed loads instead; Probe exists for tests.
func (c *Cache) Probe(paddr uint64) bool {
	set, tag := c.set(paddr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].holds(tag) {
			return true
		}
	}
	return false
}

// FlushLine implements CLFLUSH: evict (without write-back timing) the line
// containing paddr from this level and everything below.
func (c *Cache) FlushLine(paddr uint64) { c.flushLine(paddr) }

func (c *Cache) flushLine(paddr uint64) {
	set, tag := c.set(paddr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.holds(tag) {
			l.tag &^= lineValid
			c.Stats.Flushes++
		}
	}
	c.next.flushLine(paddr)
}

// InvalidateAll empties this level and everything below.
func (c *Cache) InvalidateAll() { c.invalidateAll() }

func (c *Cache) invalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.next.invalidateAll()
}

// Hierarchy wires up the Table III memory system: split L1I/L1D over a
// shared L2, L3, and DRAM.
type Hierarchy struct {
	L1I, L1D *Cache
	L2, L3   *Cache
	Mem      *Memory
}

// HierarchyConfig parameterises NewHierarchy. Zero fields take the paper's
// Table III defaults via DefaultHierarchyConfig.
type HierarchyConfig struct {
	LineB      int
	L1I, L1D   Config
	L2, L3     Config
	MemLatency int
}

// DefaultHierarchyConfig returns the Table III memory configuration:
// 32 KB 8-way L1I (5 cycles), 48 KB 12-way L1D (5 cycles), 512 KB 8-way L2
// (15 cycles), 2 MB 16-way L3 (40 cycles), DDR4-like DRAM.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		LineB:      64,
		L1I:        Config{Name: "L1I", SizeB: 32 << 10, Ways: 8, Latency: 5},
		L1D:        Config{Name: "L1D", SizeB: 48 << 10, Ways: 12, Latency: 5},
		L2:         Config{Name: "L2", SizeB: 512 << 10, Ways: 8, Latency: 15},
		L3:         Config{Name: "L3", SizeB: 2 << 20, Ways: 16, Latency: 40},
		MemLatency: 110,
	}
}

// NewHierarchy builds the four-level hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.LineB == 0 {
		cfg = DefaultHierarchyConfig()
	}
	mem := &Memory{Latency: cfg.MemLatency}
	fix := func(c Config) Config {
		if c.LineB == 0 {
			c.LineB = cfg.LineB
		}
		return c
	}
	l3 := New(fix(cfg.L3), mem)
	l2 := New(fix(cfg.L2), l3)
	return &Hierarchy{
		L1I: New(fix(cfg.L1I), l2),
		L1D: New(fix(cfg.L1D), l2),
		L2:  l2,
		L3:  l3,
		Mem: mem,
	}
}

// Register publishes one level's counters under prefix ("cache.l2").
func (c *Cache) Register(r *stats.Registry, prefix string) {
	r.Counter(prefix+".hits", "demand hits", func() uint64 { return c.Stats.Hits })
	r.Counter(prefix+".misses", "demand misses", func() uint64 { return c.Stats.Misses })
	r.Counter(prefix+".evictions", "lines evicted", func() uint64 { return c.Stats.Evictions })
	r.Counter(prefix+".writebacks", "dirty victims written back", func() uint64 { return c.Stats.Writebacks })
	r.Counter(prefix+".flushes", "lines removed by CLFLUSH", func() uint64 { return c.Stats.Flushes })
	r.Counter(prefix+".prefetches", "lines installed by the prefetcher", func() uint64 { return c.Stats.Prefetches })
	r.Formula(prefix+".miss_rate", "misses per demand access",
		func(get func(string) float64) float64 {
			acc := get(prefix+".hits") + get(prefix+".misses")
			if acc == 0 {
				return 0
			}
			return get(prefix+".misses") / acc
		})
}

// Register publishes every level of the hierarchy plus the DRAM backend
// under prefix ("cache"), using the levels' configured names lowercased
// ("cache.l1d.misses", "cache.dram.accesses").
func (h *Hierarchy) Register(r *stats.Registry, prefix string) {
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2, h.L3} {
		c.Register(r, prefix+"."+strings.ToLower(c.name))
	}
	r.Counter(prefix+".dram.accesses", "DRAM accesses", func() uint64 { return h.Mem.Accesses })
}

// LoadLatency times a data load at paddr.
func (h *Hierarchy) LoadLatency(paddr uint64) int { return h.L1D.Access(paddr, false) }

// StoreLatency times a data store at paddr.
func (h *Hierarchy) StoreLatency(paddr uint64) int { return h.L1D.Access(paddr, true) }

// FetchLatency times an instruction fetch at paddr.
func (h *Hierarchy) FetchLatency(paddr uint64) int { return h.L1I.Access(paddr, false) }

// Flush removes the line containing paddr from every level (CLFLUSH).
// Flushing through L1D also clears L2/L3; L1I is flushed separately since it
// sits on a parallel path.
func (h *Hierarchy) Flush(paddr uint64) {
	h.L1D.FlushLine(paddr)
	h.L1I.FlushLine(paddr)
}

// InvalidateAll empties the whole hierarchy.
func (h *Hierarchy) InvalidateAll() {
	h.L1D.InvalidateAll()
	h.L1I.InvalidateAll()
}
