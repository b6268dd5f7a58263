package phys

import (
	"sort"

	"repro/internal/addr"
)

// Section V-C: "To find space for large chunks in a highly-fragmented
// machine, the OS may perform memory compaction or swap-out pages, as is
// ordinarily done to allocate huge pages." This file models Linux-style
// compaction: movable allocated blocks migrate toward one end of a zone so
// free space coalesces at the other.
//
// The model needs the owners of movable blocks to cooperate (their frame
// numbers change), so compaction works through a MovableSet the owner
// registers its blocks in. Page-table chunks are movable in principle but
// the paper's designs never rely on it; the primary client is the
// fragmentation tooling and the THP story (compaction rescues 2MB
// allocations, not 64MB ones — mirroring the paper's observation that very
// large contiguous requests still fail).

// Movable tracks relocatable allocations and their owner callback.
type Movable struct {
	// Relocate is invoked after a block moves; owners update their frame
	// references. It must not allocate or free physical memory.
	Relocate func(old, new addr.PPN, order int)

	blocks map[addr.PPN]int // base frame -> order
}

// NewMovable returns an empty movable-allocation registry.
func NewMovable(relocate func(old, new addr.PPN, order int)) *Movable {
	return &Movable{Relocate: relocate, blocks: make(map[addr.PPN]int)}
}

// Add registers a block as movable.
func (mv *Movable) Add(base addr.PPN, order int) { mv.blocks[base] = order }

// Remove unregisters a block (freed or pinned).
func (mv *Movable) Remove(base addr.PPN) { delete(mv.blocks, base) }

// Len returns the number of registered blocks.
func (mv *Movable) Len() int { return len(mv.blocks) }

// CompactionCost is the cycle cost of migrating one 4KB frame during
// compaction: copy 4KB (~64 lines at one per cycle each way) plus the
// remap/TLB-shootdown overhead. Linux measures single-page migration in the
// low thousands of cycles.
const CompactionCost = 2000

// Compact migrates registered movable blocks downward (toward frame 0) so
// free space coalesces upward, until a free block of at least targetOrder
// exists or no migration makes progress. It returns the cycle cost spent
// and whether the target is now allocatable.
//
// The algorithm mirrors Linux's compaction scanner pair: a free scanner
// takes the lowest free frames; a migration scanner takes the highest
// movable blocks; blocks migrate from high to low addresses.
func (m *Memory) Compact(mv *Movable, targetOrder int) (uint64, bool) {
	var cycles uint64
	for iter := 0; iter < 1024; iter++ {
		if m.CanAlloc(targetOrder) {
			return cycles, true
		}
		// Pick the highest-addressed movable block.
		if mv.Len() == 0 {
			return cycles, false
		}
		bases := make([]addr.PPN, 0, mv.Len())
		for b := range mv.blocks {
			bases = append(bases, b)
		}
		sort.Slice(bases, func(i, j int) bool { return bases[i] > bases[j] })

		moved := false
		for _, base := range bases {
			order := mv.blocks[base]
			// Find the lowest-addressed free slot for it (the free scanner
			// walks up from the zone start).
			dst, ok := m.allocLowest(order)
			if !ok {
				continue
			}
			if dst >= base {
				// No improvement; undo.
				m.Free(dst, order)
				continue
			}
			// Migrate: copy frames, free the old block.
			mv.Remove(base)
			mv.Add(dst, order)
			m.Free(base, order)
			if mv.Relocate != nil {
				mv.Relocate(base, dst, order)
			}
			cycles += uint64(1<<order) * CompactionCost
			moved = true
			break
		}
		if !moved {
			return cycles, m.CanAlloc(targetOrder)
		}
	}
	return cycles, m.CanAlloc(targetOrder)
}

// allocLowest allocates the lowest-addressed free block that can satisfy
// the given order, splitting a larger block if necessary. Unlike AllocOrder
// (which pops LIFO for speed), the compaction free-scanner must pack from
// the bottom of the zone.
func (m *Memory) allocLowest(order int) (addr.PPN, bool) {
	bestFrame := ^uint64(0)
	bestOrder := -1
	for o := order; o <= m.maxOrder; o++ {
		for _, f := range m.freeList[o] {
			if f < bestFrame && m.isHead(f, o) {
				bestFrame = f
				bestOrder = o
			}
		}
	}
	if bestOrder < 0 {
		return 0, false
	}
	// Detach (the free-list entry goes stale; popFree skips it later).
	m.clearHead(bestFrame, bestOrder)
	m.freeBlk[bestOrder]--
	m.freePages -= 1 << bestOrder
	// Split down, returning upper halves.
	for bestOrder > order {
		bestOrder--
		m.addFree(bestFrame+(1<<bestOrder), bestOrder)
	}
	m.stats.Allocs++
	return addr.PPN(bestFrame), true
}
