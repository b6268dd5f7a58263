// Package cwc models the Cuckoo Walk Tables and Cuckoo Walk Caches of ECPT,
// which ME-HPT inherits: small MMU caches that record, per virtual-address
// region, which ways of which page-size HPT can hold a translation, so a
// hardware walk probes (ideally) a single memory location.
//
// The model is functional: the authoritative "which way holds it" answer
// comes from the page table itself; the CWC decides only whether the walker
// *knows* that answer up front (CWC hit — one targeted probe) or must first
// fetch the CWT entry from memory (CWC miss — one extra memory access).
// This captures the latency structure the paper relies on, including hiding
// the L2P access behind the CWC lookup (Section V-D, Figure 7).
package cwc

import (
	"repro/internal/addr"
)

// Latency is the CWC round-trip in cycles (Table III: PMD-CWC and PUD-CWC
// are both 4 cycles). The ME-HPT L2P access (shift + access + mask, 4
// cycles) is fully overlapped with this, so it never appears separately on
// the walk path.
const Latency = 4

// cwtBase is a synthetic physical region where CWT entries notionally live;
// it only needs to be distinct from data/page-table addresses so that cache
// interactions are realistic.
const cwtBase = addr.PhysAddr(1) << 45

// LRU is a small fully-associative cache of tags with least-recently-used
// replacement, most recent first: the shape of every walk cache, the CWC
// pair here and the radix page-walk caches in the MMU.
type LRU struct {
	entries int
	tags    []uint64
}

// NewLRU returns an empty LRU holding at most entries tags.
func NewLRU(entries int) LRU { return LRU{entries: entries} }

// Lookup reports whether tag is cached, making it the most recent on a hit.
func (c *LRU) Lookup(tag uint64) bool {
	for i, t := range c.tags {
		if t == tag {
			copy(c.tags[1:i+1], c.tags[:i])
			c.tags[0] = tag
			return true
		}
	}
	return false
}

// Insert makes tag the most recent entry, evicting the least recent one
// when the cache is full.
func (c *LRU) Insert(tag uint64) {
	if c.Lookup(tag) {
		return
	}
	if len(c.tags) < c.entries {
		c.tags = append(c.tags, 0) // grows to c.entries once; later inserts reuse it
	}
	copy(c.tags[1:], c.tags)
	c.tags[0] = tag
}

// Drop removes tag if it is cached.
func (c *LRU) Drop(tag uint64) {
	for i, t := range c.tags {
		if t == tag {
			c.tags = append(c.tags[:i], c.tags[i+1:]...)
			return
		}
	}
}

// Flush empties the cache. The tag slice is truncated in place, keeping the
// flush allocation-free.
func (c *LRU) Flush() { c.tags = c.tags[:0] }

// Stats counts walker cache behaviour.
type Stats struct {
	Hits, Misses uint64
}

// Walker is the CWC pair: a PMD-grain cache (2MB regions, 16 entries) and a
// PUD-grain cache (1GB regions, 2 entries), per Table III.
type Walker struct {
	pmd, pud LRU
	stats    Stats
}

// New returns a walker with the paper's CWC geometry.
func New() *Walker {
	return &Walker{pmd: NewLRU(16), pud: NewLRU(2)}
}

// Probe consults the CWCs for va. On a hit the walker already knows the
// candidate (page size, way) set and pays only the CWC latency. On a miss
// it must also fetch the CWT entry from memory; the returned address is
// that extra access (to be priced by the cache hierarchy). Probing fills
// the caches, as the subsequent CWT fetch would.
func (w *Walker) Probe(va addr.VirtAddr) (hit bool, cwtFetch addr.PhysAddr, lat uint64) {
	pmdRegion := uint64(va) >> addr.Page2M.Shift()
	pudRegion := uint64(va) >> addr.Page1G.Shift()
	if w.pmd.Lookup(pmdRegion) || w.pud.Lookup(pudRegion) {
		w.stats.Hits++
		return true, 0, Latency
	}
	w.stats.Misses++
	w.pmd.Insert(pmdRegion)
	w.pud.Insert(pudRegion)
	return false, cwtBase + addr.PhysAddr(pmdRegion*8), Latency
}

// Invalidate drops the region covering va (page-size change, unmap).
func (w *Walker) Invalidate(va addr.VirtAddr) {
	w.pmd.Drop(uint64(va) >> addr.Page2M.Shift())
}

// Flush empties both CWCs. CWT contents are per address space and the
// walker caches carry no ASID, so a context switch must drop them.
func (w *Walker) Flush() {
	w.pmd.Flush()
	w.pud.Flush()
}

// Stats returns hit/miss counters.
func (w *Walker) Stats() Stats { return w.stats }
