// Package cache models the set-associative caches of the simulated
// GPU: the 16KB 4-way L1D and the 768KB 8-way L2 of Table I, with LRU
// replacement, XOR-based set-index hashing, per-line warp-ID ownership
// tags (needed by the interference machinery) and the Victim Tag Array
// of CCWS/CIAO.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/memory"
)

// WritePolicy selects the allocation/propagation behaviour on writes.
type WritePolicy uint8

// Write policies from Table I.
const (
	// WriteThroughNoAllocate: global writes at L1D go straight through
	// without allocating a line.
	WriteThroughNoAllocate WritePolicy = iota
	// WriteBackAllocate: L2 behaviour — allocate on write miss, write
	// dirty lines back on eviction.
	WriteBackAllocate
)

// Config shapes a cache.
type Config struct {
	// Name is used in diagnostics and stats.
	Name string
	// SizeBytes is the total data capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// Write selects the write policy.
	Write WritePolicy
	// UseXORHash selects XOR set-index hashing (the paper's baseline
	// enhancement) instead of modulo indexing.
	UseXORHash bool
	// HitLatency is the access latency in cycles (Table I: 1 for L1D).
	HitLatency int
}

// Sets returns the number of sets implied by the config.
func (c Config) Sets() int {
	return c.SizeBytes / (memory.LineSize * c.Ways)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	sets := c.Sets()
	if sets == 0 || sets*c.Ways*memory.LineSize != c.SizeBytes {
		return fmt.Errorf("cache %q: size %dB not divisible into %d-way 128B sets", c.Name, c.SizeBytes, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// Eviction records a replaced line: the victim's address and the warp
// that owned it, plus the warp whose fill evicted it. This is exactly
// the (address, evictor WID) pair CIAO feeds into the owner's VTA set.
type Eviction struct {
	Line     memory.Addr
	OwnerWID int
	Evictor  int
	Dirty    bool
}

// Stats aggregates cache activity.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	WriteHits   uint64
	WriteMiss   uint64
	Fills       uint64
	Invalidates uint64
}

// HitRate returns Hits/Accesses (0 for no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative cache with LRU replacement.
// The zero value is not usable; construct with New.
//
// Tag state is stored as one flat slice per field rather than one
// struct per line: way w of set s sits at index s*ways+w of each. A
// lookup therefore compares one contiguous row of tags (an 8-way row
// is one 64-byte host cache line) and touches lastUse, owner and dirty
// only for the way it hits or replaces.
type Cache struct {
	cfg  Config
	bits uint   // log2(number of sets)
	mask uint64 // number of sets - 1

	// tags holds lineAddr|1 for a valid way and 0 for an invalid one.
	// Line addresses have their low LineShift bits clear, so the low
	// bit is free to mark validity.
	tags    []uint64
	lastUse []uint64 // cycle of last touch, for LRU
	owner   []int    // WID of the warp that filled the way
	dirty   []bool
	stats   Stats
}

// New builds a cache from cfg, panicking on invalid geometry (a
// programming error in experiment setup, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	n := nsets * cfg.Ways
	return &Cache{
		cfg:     cfg,
		bits:    uint(bits.TrailingZeros(uint(nsets))),
		mask:    uint64(nsets - 1),
		tags:    make([]uint64, n),
		lastUse: make([]uint64, n),
		owner:   make([]int, n),
		dirty:   make([]bool, n),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// row returns the index of way 0 of the set la maps to, and la's tag.
func (c *Cache) row(la memory.Addr) (base int, tag uint64) {
	line := la.LineIndex()
	var set uint64
	if c.cfg.UseXORHash {
		set = uint64(memory.XORFold(line, c.bits))
	} else {
		set = line & c.mask
	}
	return int(set) * c.cfg.Ways, uint64(la) | 1
}

// find returns the index of the way holding addr's line, or -1.
func (c *Cache) find(addr memory.Addr) int {
	base, tag := c.row(addr.LineAddr())
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// Probe checks for a hit without modifying replacement state.
func (c *Cache) Probe(addr memory.Addr) bool {
	return c.find(addr) >= 0
}

// Access performs a load or store lookup at cycle now for warp wid.
// On a hit it updates LRU state and returns hit=true. On a miss the
// caller is expected to allocate an MSHR entry and later call Fill.
// Store behaviour follows the configured write policy: under
// write-through-no-allocate a store miss does not allocate and a store
// hit updates the line in place (and is propagated by the caller).
func (c *Cache) Access(addr memory.Addr, wid int, now uint64, isWrite bool) (hit bool) {
	c.stats.Accesses++
	i := c.find(addr)
	if i < 0 {
		c.stats.Misses++
		if isWrite {
			c.stats.WriteMiss++
		}
		return false
	}
	c.lastUse[i] = now
	if isWrite {
		c.stats.WriteHits++
		if c.cfg.Write == WriteBackAllocate {
			c.dirty[i] = true
		}
	}
	c.stats.Hits++
	return true
}

// Fill installs the line for warp wid at cycle now, returning the
// eviction record when a valid line was displaced. The victim is the
// first invalid way, else the lowest-numbered way with the oldest
// last use. Fill of an already-present line (two warps' misses to the
// same line merged in the MSHR) refreshes only its LRU state: the
// warp that filled it first stays its owner.
func (c *Cache) Fill(addr memory.Addr, wid int, now uint64) (ev Eviction, evicted bool) {
	base, tag := c.row(addr.LineAddr())
	c.stats.Fills++
	victim := -1
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tag {
			c.lastUse[base+i] = now
			return Eviction{}, false
		}
		if t == 0 && victim < 0 {
			victim = i
		}
	}
	if victim < 0 {
		lru := c.lastUse[base : base+c.cfg.Ways]
		victim = 0
		for i := 1; i < len(lru); i++ {
			if lru[i] < lru[victim] {
				victim = i
			}
		}
		v := base + victim
		ev = Eviction{
			Line:     memory.Addr(c.tags[v] &^ 1),
			OwnerWID: c.owner[v],
			Evictor:  wid,
			Dirty:    c.dirty[v],
		}
		evicted = true
		c.stats.Evictions++
	}
	v := base + victim
	c.tags[v], c.lastUse[v], c.owner[v], c.dirty[v] = tag, now, wid, false
	return ev, evicted
}

// clearWay invalidates way i.
func (c *Cache) clearWay(i int) {
	c.tags[i], c.lastUse[i], c.owner[i], c.dirty[i] = 0, 0, 0, false
}

// Invalidate removes the line if present, returning whether it was
// present and dirty. CIAO uses this when migrating a line from L1D to
// the shared-memory cache (the single-copy coherence rule of §III-B).
func (c *Cache) Invalidate(addr memory.Addr) (present, dirty bool) {
	i := c.find(addr)
	if i < 0 {
		return false, false
	}
	dirty = c.dirty[i]
	c.clearWay(i)
	c.stats.Invalidates++
	return true, dirty
}

// Owner returns the WID that filled the line, if present.
func (c *Cache) Owner(addr memory.Addr) (wid int, ok bool) {
	if i := c.find(addr); i >= 0 {
		return c.owner[i], true
	}
	return 0, false
}

// Stats returns a snapshot of the cache statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics without disturbing contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates every line and returns how many were dirty.
func (c *Cache) Flush() (dirtyLines int) {
	for i, t := range c.tags {
		if t != 0 && c.dirty[i] {
			dirtyLines++
		}
		c.clearWay(i)
	}
	return dirtyLines
}

// OccupiedLines reports how many lines are currently valid.
func (c *Cache) OccupiedLines() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
