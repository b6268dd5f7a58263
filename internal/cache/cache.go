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
// Tags live in a single flat set-major array (sets × ways), MRU first
// within each set, 0 marking an empty slot (tags are stored as line+1).
// Empty slots are always a suffix of their set — fills push at the front —
// so probes stop at the first zero. The flat layout replaces the per-set
// []uint64 slices whose append-growth was the second-largest allocation
// source on the simulator's hot path.
type Cache struct {
	cfg      Config
	sets     uint64
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	lineBits uint
	ways     int
	tags     []uint64 // sets × ways, set-major; 0 = empty
	stats    Stats
}

// New creates a cache level. Sets are derived from size/ways/line; the set
// count need not be a power of two (Table III's 12-way L2 TLB layout made
// that a requirement elsewhere too).
func New(cfg Config) *Cache {
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / uint64(cfg.Ways)
	if sets == 0 {
		sets = 1
	}
	c := &Cache{cfg: cfg, sets: sets, ways: cfg.Ways}
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	c.lineBits = 0
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lineBits++
	}
	c.tags = make([]uint64, sets*uint64(cfg.Ways))
	return c
}

// line returns the line number of pa.
func (c *Cache) line(pa addr.PhysAddr) uint64 { return uint64(pa) >> c.lineBits }

// set returns the tag slots of the set holding line ln. Table III's
// geometries are all power-of-two set counts, so the modulo reduces to the
// precomputed mask on the hot path.
func (c *Cache) set(ln uint64) []uint64 {
	var si uint64
	if c.setMask != 0 || c.sets == 1 {
		si = ln & c.setMask
	} else {
		si = ln % c.sets
	}
	base := si * uint64(c.ways)
	return c.tags[base : base+uint64(c.ways)]
}

// promote moves set[i] to the MRU front. The explicit backward shift
// replaces copy(): promotion distances are tiny (usually one slot), where a
// memmove call costs more than the move itself.
//
//go:inline
func promote(set []uint64, i int) {
	want := set[i]
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = want
}

// fillFront inserts want at the MRU front of a set whose first n slots are
// valid, dropping the LRU tail when full — the shared tail of Fill and the
// batch pipeline's inline refill.
//
//go:inline
func fillFront(set []uint64, want uint64, n int) {
	if n == len(set) {
		n-- // set full: shifting right drops the LRU tail
	}
	for ; n > 0; n-- {
		set[n] = set[n-1]
	}
	set[0] = want
}

// Lookup probes the cache without filling, updating LRU on a hit.
//
//mehpt:hotpath
func (c *Cache) Lookup(pa addr.PhysAddr) bool {
	want := c.line(pa) + 1
	set := c.set(want - 1)
	for i, tag := range set {
		if tag == 0 {
			break // empties are a suffix: the rest of the set is empty
		}
		if tag == want {
			promote(set, i)
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Fill inserts pa's line, evicting the LRU victim if the set is full.
//
//mehpt:hotpath
func (c *Cache) Fill(pa addr.PhysAddr) {
	want := c.line(pa) + 1
	set := c.set(want - 1)
	n := len(set)
	for i, tag := range set {
		if tag == 0 {
			n = i
			break
		}
	}
	fillFront(set, want, n)
}

// Latency returns the hit round-trip latency.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

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

// NewHierarchy builds the stack.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		levels:      [3]Cache{*New(cfg.L1), *New(cfg.L2), *New(cfg.L3)},
		dramLatency: cfg.DRAMLatency,
	}
}

// Access performs one memory access and returns its round-trip latency. On
// a miss the line is filled into every level (inclusive hierarchy).
//
//mehpt:hotpath
func (h *Hierarchy) Access(pa addr.PhysAddr) uint64 {
	if h.levels[0].Lookup(pa) {
		return h.levels[0].Latency()
	}
	return h.accessFromL1Miss(pa)
}

// accessFromL1Miss finishes Access after the L1 probe has already missed
// (and been counted): probe the outer levels, fill inward on a hit, go to
// DRAM and fill everything on a full miss. Access and AccessBatch's slow
// lane both funnel through this, which keeps them bit-identical.
//
//mehpt:hotpath
func (h *Hierarchy) accessFromL1Miss(pa addr.PhysAddr) uint64 {
	if h.levels[1].Lookup(pa) {
		h.levels[0].Fill(pa)
		return h.levels[1].Latency()
	}
	return h.accessFromL2Miss(pa)
}

// accessFromL2Miss finishes an access that missed both L1 and L2 (both
// counted): probe L3, fill inward on a hit, go to DRAM and fill everything
// on a full miss. accessFromL1Miss and AccessBatch's inline L2 lane both
// funnel through this.
//
//mehpt:hotpath
func (h *Hierarchy) accessFromL2Miss(pa addr.PhysAddr) uint64 {
	for i := 2; i < len(h.levels); i++ {
		if h.levels[i].Lookup(pa) {
			for j := 0; j < i; j++ {
				h.levels[j].Fill(pa)
			}
			return h.levels[i].Latency()
		}
	}
	for i := range h.levels {
		h.levels[i].Fill(pa)
	}
	h.dramHits++
	return h.dramLatency
}

// AccessBatch performs one memory access per element of pas, writing each
// access's round-trip latency into lats[i]. It is bit-identical — state,
// stats, and latencies — to len(pas) sequential Access calls, but software-
// pipelines the common case: L1 set indices for a whole chunk are computed
// in a first pass so the tag loads overlap, then compared in a second pass.
// Misses fall through to the same outer-level walk Access uses.
//
//mehpt:hotpath
func (h *Hierarchy) AccessBatch(pas []addr.PhysAddr, lats []uint64) {
	const chunk = 64 // matches tlb.BatchWidth; local so the scratch is stack-sized
	l1 := &h.levels[0]
	l2 := &h.levels[1]
	ways := uint64(l1.ways)
	w2 := uint64(l2.ways)
	lat1, lat2 := l1.cfg.Latency, l2.cfg.Latency
	// Hoist the tag arrays (and geometry) into locals: the compiler cannot
	// prove the lats stores don't alias the tag slices, so field reloads
	// would otherwise follow every store in the loop.
	tags1, tags2 := l1.tags, l2.tags
	mask1, sets1 := l1.setMask, l1.sets
	mask2, sets2 := l2.setMask, l2.sets
	bits1, bits2 := l1.lineBits, l2.lineBits
	// Stats accumulate in registers and flush once per chunk: nothing
	// observes the counters mid-batch, so the end state is bit-identical.
	var hits1, miss1, hits2, miss2 uint64
	for len(pas) > 0 {
		n := len(pas)
		if n > chunk {
			n = chunk
		}
		var baseBuf [chunk]uint64
		var wantBuf [chunk]uint64
		for i, pa := range pas[:n] {
			ln := uint64(pa) >> bits1
			var si uint64
			if mask1 != 0 || sets1 == 1 {
				si = ln & mask1
			} else {
				si = ln % sets1
			}
			baseBuf[i] = si * ways
			wantBuf[i] = ln + 1
		}
		for i, pa := range pas[:n] {
			base, want := baseBuf[i], wantBuf[i]
			set := tags1[base : base+ways]
			hit := -1
			nv := len(set) // valid-entry count, reused by the inline refill
			for j, tag := range set {
				if tag == 0 {
					nv = j
					break
				}
				if tag == want {
					hit = j
					break
				}
			}
			if hit >= 0 {
				promote(set, hit)
				hits1++
				lats[i] = lat1
				continue
			}
			// Count the L1 miss exactly as Lookup would, then run the L2
			// probe inline — the dominant miss case — with the same LRU and
			// stats order as accessFromL1Miss. Deeper misses leave the fast
			// path.
			miss1++
			ln2 := uint64(pa) >> bits2
			var si2 uint64
			if mask2 != 0 || sets2 == 1 {
				si2 = ln2 & mask2
			} else {
				si2 = ln2 % sets2
			}
			set2 := tags2[si2*w2 : si2*w2+w2]
			want2 := ln2 + 1
			hit2 := -1
			for j, tag := range set2 {
				if tag == 0 {
					break
				}
				if tag == want2 {
					hit2 = j
					break
				}
			}
			if hit2 >= 0 {
				promote(set2, hit2)
				hits2++
				fillFront(set, want, nv) // inclusive refill of L1, as Fill would
				lats[i] = lat2
				continue
			}
			miss2++
			lats[i] = h.accessFromL2Miss(pa)
		}
		pas = pas[n:]
		lats = lats[n:]
	}
	l1.stats.Hits += hits1
	l1.stats.Misses += miss1
	l2.stats.Hits += hits2
	l2.stats.Misses += miss2
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

// Peek returns the latency pa would see right now without touching state —
// used to price the parallel probes of a cuckoo walk, where only the
// winning probe should update LRU state meaningfully.
//
//mehpt:hotpath
func (h *Hierarchy) Peek(pa addr.PhysAddr) uint64 {
	for i := range h.levels {
		c := &h.levels[i]
		want := c.line(pa) + 1
		for _, tag := range c.set(want - 1) {
			if tag == 0 {
				break
			}
			if tag == want {
				return c.Latency()
			}
		}
	}
	return h.dramLatency
}

// DRAMAccesses returns the number of accesses that reached memory.
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dramHits }

// Level returns cache level i (0 = L1), for stats inspection.
func (h *Hierarchy) Level(i int) *Cache { return &h.levels[i] }
