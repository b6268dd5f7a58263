// Package cache models the data-cache hierarchy of the evaluated machine
// (Table III): private L1 and L2, a shared L3, and DRAM behind them. The
// model is latency-only: an access returns the round-trip cycles of the
// level that hits. Both workload data accesses and page-walk accesses go
// through it, so radix walks benefit from page-table locality and hashed
// walks pay for its absence — the first-order effect behind Figure 9.
package cache

import "repro/internal/addr"

// Config describes one cache level.
type Config struct {
	SizeBytes uint64
	Ways      int
	LineBytes uint64
	Latency   uint64 // round-trip cycles from the core on a hit
}

// Stats counts accesses for one level.
type Stats struct {
	Hits, Misses uint64
}

// Cache is one set-associative LRU cache level.
//
// Tags live in a single flat set-major array (sets × ways), 0 marking an
// empty slot (tags are stored as line+1). Each set is a ring in LRU order:
// heads[set] names its MRU slot and recency runs forward from there,
// wrapping at the set's end, and empty slots are always a suffix of that
// order. A fill steps the head back one slot and writes there — onto the
// LRU victim when the set is full, else onto an empty slot — so a miss
// costs one probe and one store; a hit shifts only the slots between the
// head and the hit.
type Cache struct {
	cfg      Config
	sets     uint64
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	lineBits uint
	ways     int
	tags     []uint64 // sets × ways, set-major; 0 = empty
	heads    []uint32 // MRU slot of each set
	stats    Stats
}

// newLevel creates a cache level without its heads, which NewHierarchy
// allocates once for all three levels. Sets are derived from
// size/ways/line; the set count need not be a power of two (Table III's
// 12-way L2 TLB layout made that a requirement elsewhere too).
func newLevel(cfg Config) Cache {
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / uint64(cfg.Ways)
	if sets == 0 {
		sets = 1
	}
	c := Cache{cfg: cfg, sets: sets, ways: cfg.Ways}
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lineBits++
	}
	c.tags = make([]uint64, sets*uint64(cfg.Ways))
	return c
}

// setOf returns the index of the set holding line ln. Table III's
// geometries are all power-of-two set counts, so the modulo reduces to the
// precomputed mask on the hot path.
func (c *Cache) setOf(ln uint64) uint64 {
	if c.setMask != 0 || c.sets == 1 {
		return ln & c.setMask
	}
	return ln % c.sets
}

// find returns the slot holding want in a ring set whose MRU slot is h, or
// -1. Most hits land on the MRU slot; past it the scan runs in slot order,
// so its loads do not wait on the head and a miss in a full set runs a
// fixed trip count.
func find(set []uint64, h int, want uint64) int {
	if set[h] == want {
		return h
	}
	for p, tag := range set {
		if tag == want {
			return p
		}
	}
	return -1
}

// probe looks pa's line up, moving it to the MRU slot and counting the hit
// or miss. It returns the line's tag and set, so a missed level is filled
// without a second probe.
//
//mehpt:hotpath
func (c *Cache) probe(pa addr.PhysAddr) (want, si uint64, hit bool) {
	ln := uint64(pa) >> c.lineBits
	want, si = ln+1, c.setOf(ln)
	w := uint64(c.ways)
	set := c.tags[si*w : si*w+w]
	h := int(c.heads[si])
	p := find(set, h, want)
	if p < 0 {
		c.stats.Misses++
		return want, si, false
	}
	// Shift the entries between the head and the hit back one place.
	for p != h {
		q := p - 1
		if q < 0 {
			q = len(set) - 1
		}
		set[p] = set[q]
		p = q
	}
	set[h] = want
	c.stats.Hits++
	return want, si, true
}

// push makes want, which must be absent, the MRU entry of set si: the head
// steps back one slot, onto the LRU victim when the set is full and onto
// the last empty slot otherwise, so the empties stay a suffix.
//
//mehpt:hotpath
func (c *Cache) push(si, want uint64) {
	h := c.heads[si]
	if h == 0 {
		h = uint32(c.ways)
	}
	h--
	c.heads[si] = h
	c.tags[si*uint64(c.ways)+uint64(h)] = want
}

// Stats returns the hit/miss counters.
func (c *Cache) Stats() Stats { return c.stats }

// Hierarchy is the full L1/L2/L3/DRAM stack. The three levels are stored
// by value in one array so the per-access walk stays on one cache line of
// metadata and never chases heap pointers.
type Hierarchy struct {
	levels [3]Cache
	//mehpt:transient -- fixed geometry parameter; RestoreHierarchy re-derives it from the caller's HierarchyConfig
	dramLatency uint64
	dramHits    uint64
}

// HierarchyConfig parameterizes NewHierarchy.
type HierarchyConfig struct {
	L1, L2, L3  Config
	DRAMLatency uint64
}

// TableIII returns the paper's memory-system configuration: 32KB/8-way L1
// (2 cyc), 512KB/8-way L2 (16 cyc), 2MB/16-way L3 per core (56 cyc avg),
// 200-cycle DRAM, 64B lines.
func TableIII() HierarchyConfig {
	return HierarchyConfig{
		L1:          Config{SizeBytes: 32 * addr.KB, Ways: 8, LineBytes: 64, Latency: 2},
		L2:          Config{SizeBytes: 512 * addr.KB, Ways: 8, LineBytes: 64, Latency: 16},
		L3:          Config{SizeBytes: 2 * addr.MB, Ways: 16, LineBytes: 64, Latency: 56},
		DRAMLatency: 200,
	}
}

// NewHierarchy builds the stack. One heads allocation serves all three
// levels, so the rings cost no allocation beyond the tag arrays.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{
		levels:      [3]Cache{newLevel(cfg.L1), newLevel(cfg.L2), newLevel(cfg.L3)},
		dramLatency: cfg.DRAMLatency,
	}
	heads := make([]uint32, h.levels[0].sets+h.levels[1].sets+h.levels[2].sets)
	for i := range h.levels {
		c := &h.levels[i]
		c.heads, heads = heads[:c.sets:c.sets], heads[c.sets:]
	}
	return h
}

// Access performs one memory access and returns its round-trip latency. It
// probes each level once, outward until one hits (DRAM when none does), and
// fills the line into every level that missed (inclusive hierarchy).
//
//mehpt:hotpath
func (h *Hierarchy) Access(pa addr.PhysAddr) uint64 {
	var wants, sets [3]uint64
	lat := h.dramLatency
	n := 0 // levels that missed
	for ; n < len(h.levels); n++ {
		c := &h.levels[n]
		want, si, hit := c.probe(pa)
		if hit {
			lat = c.cfg.Latency
			break
		}
		wants[n], sets[n] = want, si
	}
	if n == len(h.levels) {
		h.dramHits++
	}
	for i := 0; i < n; i++ {
		h.levels[i].push(sets[i], wants[i])
	}
	return lat
}

// AccessBatch performs one memory access per element of pas, writing each
// access's round-trip latency into lats[i], exactly as len(pas) sequential
// Access calls.
//
//mehpt:hotpath
func (h *Hierarchy) AccessBatch(pas []addr.PhysAddr, lats []uint64) {
	for i, pa := range pas {
		lats[i] = h.Access(pa)
	}
}

// AccessPT performs a page-walker memory access. Page-table lines are
// modeled as effectively uncached in the data hierarchy: hardware walkers do
// not allocate into the core's L1/L2, and in the paper's 8-core full-system
// environment the shared L3 is churned by seven other cores' traffic, so
// page-table lines rarely survive between walks. The dedicated translation
// caches (radix PWCs, cuckoo CWCs) are the structures that compensate —
// exactly why a four-access sequential radix walk is materially slower than
// a single hashed probe (Figure 9's mechanism, and Section I's point that
// tree walks cannot exploit memory-level parallelism).
//
//mehpt:hotpath
func (h *Hierarchy) AccessPT(pa addr.PhysAddr) uint64 {
	_ = pa
	h.dramHits++
	return h.dramLatency
}

// DRAMAccesses returns the number of accesses that reached memory.
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dramHits }

// Level returns cache level i (0 = L1), for stats inspection.
func (h *Hierarchy) Level(i int) *Cache { return &h.levels[i] }
