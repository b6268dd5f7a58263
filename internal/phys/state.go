package phys

import (
	"fmt"
	"math/bits"
)

// MemoryState is the serializable form of a buddy Memory. The free-list
// stacks are preserved verbatim — including stale entries left behind by
// coalescing — because stack order determines which block the next Alloc
// grants, and bit-identical resumption requires the exact future
// allocation sequence, not just equivalent free-space accounting.
type MemoryState struct {
	Frames    uint64
	MaxOrder  int
	HeadOrder []int8
	FreeList  [][]uint64
	FreeBlk   [MaxOrder + 1]uint64
	FreePages uint64
	Stats     Stats
}

// State returns a deep copy of the allocator's full state. HeadOrder is
// materialized from the head bitmaps: HeadOrder[f] is the order of the
// free block f heads, or -1.
func (m *Memory) State() MemoryState {
	st := MemoryState{
		Frames:    m.frames,
		MaxOrder:  m.maxOrder,
		HeadOrder: make([]int8, m.frames),
		FreeList:  make([][]uint64, len(m.freeList)),
		FreeBlk:   m.freeBlk,
		FreePages: m.freePages,
		Stats:     m.stats,
	}
	for f := range st.HeadOrder {
		st.HeadOrder[f] = -1
	}
	m.VisitFreeBlocks(func(head uint64, order int) { st.HeadOrder[head] = int8(order) })
	for o, list := range m.freeList {
		if len(list) > 0 {
			st.FreeList[o] = make([]uint64, len(list))
			copy(st.FreeList[o], list)
		}
	}
	return st
}

// RestoreMemory rebuilds an allocator from recorded state without touching
// the normal constructor path (which would seed fresh free lists). It
// returns an error if st describes a free map the allocator cannot hold:
// a HeadOrder not one entry per frame, a MaxOrder out of range, a head
// misaligned, past the end or above MaxOrder, two free blocks that
// overlap, a free-list entry that is no aligned frame of the range, or
// free-page and per-order block counters the free map does not add up to.
func RestoreMemory(st MemoryState) (*Memory, error) {
	if st.Frames == 0 || uint64(len(st.HeadOrder)) != st.Frames {
		return nil, fmt.Errorf("phys: snapshot records %d head orders for %d frames", len(st.HeadOrder), st.Frames)
	}
	if st.MaxOrder < 0 || st.MaxOrder > MaxOrder || uint64(1)<<st.MaxOrder > st.Frames {
		return nil, fmt.Errorf("phys: snapshot max order %d out of range for %d frames", st.MaxOrder, st.Frames)
	}
	if len(st.FreeList) > MaxOrder+1 {
		return nil, fmt.Errorf("phys: snapshot has %d free lists, want at most %d", len(st.FreeList), MaxOrder+1)
	}
	m := newEmpty(st.Frames, st.MaxOrder)
	for f, o := range st.HeadOrder {
		if o == -1 {
			continue
		}
		head := uint64(f)
		if o < 0 || int(o) > st.MaxOrder || head&(1<<o-1) != 0 || head+1<<o > st.Frames {
			return nil, fmt.Errorf("phys: snapshot free head %d has bad order %d", f, o)
		}
		m.setHead(head, int(o))
	}
	for o, list := range st.FreeList {
		for _, f := range list {
			if f >= st.Frames || f&(1<<o-1) != 0 {
				return nil, fmt.Errorf("phys: snapshot order-%d free-list entry %d is not an aligned frame of %d", o, f, st.Frames)
			}
		}
		if len(list) > 0 {
			m.freeList[o] = make([]uint64, len(list))
			copy(m.freeList[o], list)
		}
	}
	var blocks [MaxOrder + 1]uint64
	var pages, end uint64
	overlap := false
	m.VisitFreeBlocks(func(head uint64, order int) {
		overlap = overlap || head < end
		end = max(end, head+1<<order)
		blocks[order]++
		pages += 1 << order
	})
	if overlap || blocks != st.FreeBlk || pages != st.FreePages {
		return nil, fmt.Errorf("phys: snapshot free map (%d pages in %v blocks, overlapping %v) disagrees with its counters (%d pages in %v)",
			pages, blocks, overlap, st.FreePages, st.FreeBlk)
	}
	m.freeBlk = st.FreeBlk
	m.freePages = st.FreePages
	m.stats = st.Stats
	return m, nil
}

// StripedState is the serializable form of a Striped pool. The injection
// hook is not part of the state — the caller re-attaches its (separately
// serialized) policy after restore.
type StripedState struct {
	StripeFrames uint64
	Seq          uint64
	Stripes      []MemoryState
}

// State captures the pool.
func (s *Striped) State() StripedState {
	st := StripedState{
		StripeFrames: s.stripeFrames,
		Seq:          s.seq,
		Stripes:      make([]MemoryState, len(s.stripes)),
	}
	for i, mem := range s.stripes {
		st.Stripes[i] = mem.State()
	}
	return st
}

// RestoreStriped rebuilds a pool from recorded state, pricing allocations
// at ambientFMFI as NewStriped does: the pricing level is configuration,
// not state. The global free-byte counter is recomputed from the restored
// stripes; the injection hook starts detached. It returns an error if a stripe does not restore or
// does not span StripeFrames frames.
func RestoreStriped(st StripedState, ambientFMFI float64) (*Striped, error) {
	if len(st.Stripes) == 0 {
		return nil, fmt.Errorf("phys: snapshot has no stripes")
	}
	s := &Striped{
		stripes:      make([]*Memory, len(st.Stripes)),
		stripeFrames: st.StripeFrames,
		model:        DefaultCostModel,
		AmbientFMFI:  ambientFMFI,
		seq:          st.Seq,
	}
	for i, ms := range st.Stripes {
		if ms.Frames != st.StripeFrames {
			return nil, fmt.Errorf("phys: stripe %d spans %d frames, pool stripes are %d", i, ms.Frames, st.StripeFrames)
		}
		mem, err := RestoreMemory(ms)
		if err != nil {
			return nil, fmt.Errorf("stripe %d: %w", i, err)
		}
		s.stripes[i] = mem
		s.free += mem.FreeBytes()
	}
	return s, nil
}

// InspectStripes calls f with each stripe's Memory in turn. It is the
// scrubber's window into the pool: f must only read (the Memory accessors
// are read-only) and must not touch the pool itself.
func (s *Striped) InspectStripes(f func(idx int, m *Memory)) {
	for i, mem := range s.stripes {
		f(i, mem)
	}
}

// StripeFrames returns the frame count of each stripe (global frame i
// lives in stripe i/StripeFrames).
func (s *Striped) StripeFrames() uint64 { return s.stripeFrames }

// Frames returns the total frame count of the allocator's range.
func (m *Memory) Frames() uint64 { return m.frames }

// VisitFreeBlocks calls f for every live free block (head frame and
// order) in ascending head order. Stale free-list entries are skipped: a
// head is live iff its bit is set in the head bitmap of its order. The
// scrubber recomputes the allocator's free accounting from this walk and
// cross-checks it against the counters.
func (m *Memory) VisitFreeBlocks(f func(head uint64, order int)) {
	// Merge the per-order bitmaps: next[o] is the lowest order-o head not
	// yet visited, or m.frames once the order is exhausted.
	var next [MaxOrder + 1]uint64
	for o := 0; o <= m.maxOrder; o++ {
		next[o] = m.nextHead(0, o)
	}
	for {
		best := -1
		for o := 0; o <= m.maxOrder; o++ {
			if next[o] < m.frames && (best < 0 || next[o] < next[best]) {
				best = o
			}
		}
		if best < 0 {
			return
		}
		f(next[best], best)
		next[best] = m.nextHead(next[best]+1<<best, best)
	}
}

// nextHead returns the lowest frame at or above from that heads a free
// block of the given order, or m.frames if there is none.
func (m *Memory) nextHead(from uint64, order int) uint64 {
	b := (from + 1<<order - 1) >> order // first candidate block
	if order > groupOrder {
		bm := m.heads[order]
		w := b / 64
		if w >= uint64(len(bm)) {
			return m.frames
		}
		word := bm[w] &^ (1<<(b%64) - 1)
		for word == 0 {
			if w++; w >= uint64(len(bm)) {
				return m.frames
			}
			word = bm[w]
		}
		return (w*64 + uint64(bits.TrailingZeros64(word))) << order
	}
	perGroup := uint64(32) >> order
	for g := b / perGroup; g < (m.frames-1)>>groupOrder+1; g++ {
		c := m.groups[g>>chunkGroupShift]
		if c == &absentChunk {
			g |= chunkGroups - 1 // on to the next chunk
			continue
		}
		word := c[g&(chunkGroups-1)] >> (64 - 64>>order) & (1<<perGroup - 1)
		if first := g * perGroup; b > first {
			word &^= 1<<(b-first) - 1
		}
		if word != 0 {
			return g<<groupOrder + uint64(bits.TrailingZeros64(word))<<order
		}
	}
	return m.frames
}
