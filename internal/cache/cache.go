// Package cache models the data-cache hierarchy of the evaluated machine
// (Table III): private L1 and L2, a shared L3, and DRAM behind them. The
// model is latency-only: an access returns the round-trip cycles of the
// level that hits. Both workload data accesses and page-walk accesses go
// through it, so radix walks benefit from page-table locality and hashed
// walks pay for its absence — the first-order effect behind Figure 9.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
)

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

// Cache is one set-associative LRU cache level of at most 16 ways.
//
// Tags live in a single flat set-major array (sets × ways), 0 marking an
// empty slot (tags are stored as line+1), and never move once written.
// Recency lives beside them, one uint64 per set: nibble k names the slot
// at recency position k, so nibble 0 is the MRU slot and nibble ways-1
// the LRU one. Every set starts in identity order, and empty slots are
// always a suffix of recency order. A hit rewrites only the word; a fill
// writes the slot the LRU nibble names — the victim when the set is full,
// else an empty slot — and rotates that nibble to the front, so a miss
// costs one probe and one store.
type Cache struct {
	cfg      Config
	sets     uint64
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	lineBits uint
	ways     int
	lruPos   uint     // ways-1, the LRU recency position
	tags     []uint64 // sets × ways, set-major; 0 = empty
	recency  []uint64 // one recency word per set
	stats    Stats
}

// maxWays is the widest level a recency word can order: 16 four-bit slot
// numbers fill its 64 bits.
const maxWays = 16

// identityOrder is a fresh set's recency word: slot k at position k. In a
// level narrower than 16 ways the nibbles past ways-1 keep slot numbers
// that no position below them holds, so they never match a lookup.
const identityOrder = 0xFEDCBA9876543210

// nibbles has 1 in every nibble, for the SWAR nibble tests.
const nibbles = 0x1111111111111111

// newLevel creates a cache level without its recency words, which
// NewHierarchy allocates once for all three levels. Sets are derived from
// size/ways/line; the set count need not be a power of two (Table III's
// 12-way L2 TLB layout made that a requirement elsewhere too).
func newLevel(cfg Config) Cache {
	if cfg.Ways < 1 || cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache: %d ways; a level holds 1 to %d ways (the 16-way limit of its recency word)", cfg.Ways, maxWays))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / uint64(cfg.Ways)
	if sets == 0 {
		sets = 1
	}
	c := Cache{cfg: cfg, sets: sets, ways: cfg.Ways, lruPos: uint(cfg.Ways - 1)}
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

// position returns the recency position whose nibble in r names slot p:
// the lowest zero nibble of r ^ p·nibbles. Borrows in the SWAR test can
// only mark nibbles above the lowest zero one, so the lowest mark is exact.
func position(r, p uint64) uint {
	x := r ^ p*nibbles
	return uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) >> 2
}

// toFront moves the nibble at recency position k of r (naming slot p) to
// position 0, shifting the positions before it back one place.
func toFront(r uint64, k uint, p uint64) uint64 {
	low := r & (1<<(4*k) - 1)
	high := r &^ (1<<(4*k+4) - 1) // 0 when k is 15: Go shifts by 64 to 0
	return high | low<<4 | p
}

// probe looks pa's line up, making it the MRU entry and counting the hit
// or miss. It returns the line's tag and set, so a missed level is filled
// without a second probe. Most hits land on the MRU slot and leave the
// word as it is; past it the scan runs in slot order, so its loads do not
// wait on the recency word and a miss in a full set runs a fixed trip
// count.
func (c *Cache) probe(pa addr.PhysAddr) (want, si uint64, hit bool) {
	ln := uint64(pa) >> c.lineBits
	want, si = ln+1, c.setOf(ln)
	w := uint64(c.ways)
	set := c.tags[si*w : si*w+w]
	r := c.recency[si]
	if set[r&15] == want {
		c.stats.Hits++
		return want, si, true
	}
	for p, tag := range set {
		if tag == want {
			c.recency[si] = toFront(r, position(r, uint64(p)), uint64(p))
			c.stats.Hits++
			return want, si, true
		}
	}
	c.stats.Misses++
	return want, si, false
}

// push makes want, which must be absent, the MRU entry of set si: it goes
// into the slot the LRU nibble names, the victim when the set is full and
// an empty slot otherwise (empties are a suffix of recency order), and
// that nibble moves to the front, so the empties stay a suffix.
func (c *Cache) push(si, want uint64) {
	r := c.recency[si]
	p := r >> (4 * c.lruPos) & 15
	c.tags[si*uint64(c.ways)+p] = want
	c.recency[si] = toFront(r, c.lruPos, p)
}

// Stats returns the hit/miss counters.
func (c *Cache) Stats() Stats { return c.stats }

// Hierarchy is the full L1/L2/L3/DRAM stack. The three levels are stored
// by value in one array so the per-access walk stays on one cache line of
// metadata and never chases heap pointers.
type Hierarchy struct {
	levels [3]Cache
	// Not in the snapshot: fixed geometry parameter; RestoreHierarchy re-derives it from the caller's HierarchyConfig
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

// NewHierarchy builds the stack. One allocation holds all three levels'
// recency words, so recency costs no allocation beyond the tag arrays. It
// panics on a level wider than maxWays; geometry comes only from TableIII
// and the tenant's fixed configuration, never from input.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{
		levels:      [3]Cache{newLevel(cfg.L1), newLevel(cfg.L2), newLevel(cfg.L3)},
		dramLatency: cfg.DRAMLatency,
	}
	words := make([]uint64, h.levels[0].sets+h.levels[1].sets+h.levels[2].sets)
	for i := range words {
		words[i] = identityOrder
	}
	for i := range h.levels {
		c := &h.levels[i]
		c.recency, words = words[:c.sets:c.sets], words[c.sets:]
	}
	return h
}

// Access performs one memory access and returns its round-trip latency. It
// probes each level once, outward until one hits (DRAM when none does), and
// fills the line into every level that missed (inclusive hierarchy).
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
func (h *Hierarchy) AccessPT(pa addr.PhysAddr) uint64 {
	_ = pa
	h.dramHits++
	return h.dramLatency
}

// DRAMAccesses returns the number of accesses that reached memory.
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dramHits }

// Level returns cache level i (0 = L1), for stats inspection.
func (h *Hierarchy) Level(i int) *Cache { return &h.levels[i] }
