// Package phys models the physical memory substrate: a buddy allocator over
// 4KB frames, the FMFI fragmentation metric, a controllable fragmenter, and
// the allocation cycle-cost model the paper measured on a real fragmented
// server (Section III).
//
// The package is an accounting model: it tracks which frames are allocated
// and what each allocation costs in cycles, but does not back real storage.
// Page-table contents live in the page-table packages; workload data is
// synthetic.
package phys

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/addr"
)

// FrameBytes is the size of a base physical frame (one 4KB page).
const FrameBytes = 4 * addr.KB

// MaxOrder is the largest buddy order supported: order 18 blocks are
// 4KB<<18 = 1GB, enough for 1GB huge pages.
const MaxOrder = 18

// ErrOutOfMemory is returned when no free block of the requested order
// exists. Under high fragmentation this is exactly the failure mode the
// paper reports for 64MB ECPT way allocations (Section III: ">0.7 FMFI, the
// system is unable to allocate 64MB and returns an error").
var ErrOutOfMemory = errors.New("phys: cannot allocate contiguous block")

// Memory is a buddy allocator over a physically-contiguous frame range.
// It is not safe for concurrent use; the simulator is single-threaded per
// simulated machine. Its free map costs the host about 2 bits per frame
// in each gigabyte where a free block of 128KB or less has been recorded,
// and about 2 bits per 64 frames elsewhere.
type Memory struct {
	frames   uint64 // total number of 4KB frames
	maxOrder int    // largest order usable given capacity
	// The free heads are one bit per order-o-aligned block for each order
	// o (see headBit). Orders up to groupOrder share one word per 32-frame
	// group, so the tests one Free makes across orders read one word.
	// The group words come in chunks of one gigabyte's frames: groups[c]
	// is absentChunk until the first setHead of a group order in gigabyte
	// c allocates it, so a machine pays for the group words of the
	// gigabytes where it has recorded a free block of 128KB or less, not
	// of all it has.
	// heads[o] holds each higher order's bitmap, all of them in one
	// backing allocation.
	groups    []*[chunkGroups]uint64
	heads     [MaxOrder + 1][]uint64
	freeList  [][]uint64           // per-order stacks of (possibly stale) free heads
	freeBlk   [MaxOrder + 1]uint64 // live free-block count per order
	freePages uint64               // total free 4KB frames

	stats Stats
}

// Stats aggregates the allocation activity the experiments report.
type Stats struct {
	Allocs        uint64 // successful allocations
	Frees         uint64
	FailedAllocs  uint64
	MaxContiguous uint64 // largest single allocation ever granted, in bytes
	AllocCycles   uint64 // total cycles charged by the cost model (if attached)
}

// NewMemory returns an allocator over capacityBytes of physical memory.
// capacityBytes is rounded down to a multiple of the frame size and must be
// at least one frame.
func NewMemory(capacityBytes uint64) *Memory {
	frames := capacityBytes / FrameBytes
	if frames == 0 {
		panic("phys: capacity smaller than one frame")
	}
	maxOrder := MaxOrder
	if hi := bits.Len64(frames) - 1; hi < maxOrder {
		maxOrder = hi
	}
	m := newEmpty(frames, maxOrder)
	// Seed the free lists with maximal aligned blocks covering the range.
	f := uint64(0)
	for f < frames {
		o := m.maxOrder
		for o > 0 && (f&((1<<o)-1) != 0 || f+(1<<o) > frames) {
			o--
		}
		m.addFree(f, o)
		f += 1 << o
	}
	return m
}

// TotalBytes returns the capacity in bytes.
func (m *Memory) TotalBytes() uint64 { return m.frames * FrameBytes }

// FreeBytes returns the number of free bytes.
func (m *Memory) FreeBytes() uint64 { return m.freePages * FrameBytes }

// ResetStats clears the accumulated statistics. Experiments call it after
// pre-fragmenting memory so that the fragmenter's own blocker allocations do
// not pollute the page tables' contiguity measurements.
func (m *Memory) ResetStats() {
	m.stats = Stats{}
}

// Stats returns a copy of the accumulated statistics.
func (m *Memory) Stats() Stats { return m.stats }

// OrderFor returns the buddy order needed for an allocation of the given
// byte size: the smallest order whose block covers size.
func OrderFor(size uint64) int {
	if size <= FrameBytes {
		return 0
	}
	frames := (size + FrameBytes - 1) / FrameBytes
	o := bits.Len64(frames - 1)
	return o
}

// BlockBytes returns the byte size of a block of the given order.
func BlockBytes(order int) uint64 { return FrameBytes << order }

// groupOrder is the highest order whose head bits live in the per-group
// words: a 32-frame group holds 32>>o order-o blocks, down to one at
// order 5.
const groupOrder = 5

// A chunk of group words covers the frames of one MaxOrder block (1GB):
// chunkGroups words, frame f's chunk f>>MaxOrder.
const (
	chunkGroupShift = MaxOrder - groupOrder
	chunkGroups     = 1 << chunkGroupShift
)

// newEmpty returns an allocator with no free block and zeroed counters.
func newEmpty(frames uint64, maxOrder int) *Memory {
	m := &Memory{frames: frames, maxOrder: maxOrder, freeList: make([][]uint64, MaxOrder+1),
		groups: make([]*[chunkGroups]uint64, (frames-1)>>MaxOrder+1)}
	for c := range m.groups {
		m.groups[c] = &absentChunk
	}
	// Size every higher-order bitmap so that any frame below frames
	// indexes it.
	words := func(o int) uint64 { return ((frames-1)>>o)/64 + 1 }
	total := uint64(0)
	for o := groupOrder + 1; o <= maxOrder; o++ {
		total += words(o)
	}
	backing := make([]uint64, total)
	for o := groupOrder + 1; o <= maxOrder; o++ {
		n := words(o)
		m.heads[o], backing = backing[:n:n], backing[n:]
	}
	return m
}

// absentChunk is every absent chunk of group words: all zero and never
// written, since setHead replaces it before it sets a bit, and clearHead
// only clears a bit that is set.
var absentChunk [chunkGroups]uint64

// headBit locates the bit recording that frame f heads a free block of
// the given order. Group word f>>5 packs the heads of frames 32g..32g+31
// for orders 0..groupOrder, order o at bits [64-64>>o, 64-32>>o); higher
// orders index heads[o] by f>>o.
func (m *Memory) headBit(f uint64, order int) (*uint64, uint64) {
	if order > groupOrder {
		b := f >> order
		return &m.heads[order][b/64], 1 << (b % 64)
	}
	return &m.groups[f>>MaxOrder][f>>groupOrder&(chunkGroups-1)], 1 << (64 - 64>>order + (f&31)>>order)
}

// alignedHeadBits[i] has, for the frame at offset i of its group, its head
// bit at every order up to groupOrder that the frame is aligned to.
var alignedHeadBits = func() (t [1 << groupOrder]uint64) {
	for i := range t {
		for o := 0; o <= groupOrder && i&(1<<o-1) == 0; o++ {
			t[i] |= 1 << (64 - 64>>o + i>>o)
		}
	}
	return t
}()

// isHead reports whether frame f heads a free block of the given order.
func (m *Memory) isHead(f uint64, order int) bool {
	w, bit := m.headBit(f, order)
	return *w&bit != 0
}

// setHead marks f as heading a free block of the given order. A group
// order's bit in an absent chunk first allocates the chunk.
func (m *Memory) setHead(f uint64, order int) {
	if c := &m.groups[f>>MaxOrder]; order <= groupOrder && *c == &absentChunk {
		*c = new([chunkGroups]uint64)
	}
	w, bit := m.headBit(f, order)
	*w |= bit
}

// clearHead unmarks f, which must head a free block of the given order.
func (m *Memory) clearHead(f uint64, order int) {
	w, bit := m.headBit(f, order)
	*w &^= bit
}

func (m *Memory) addFree(f uint64, order int) {
	m.setHead(f, order)
	m.freeList[order] = append(m.freeList[order], f)
	m.freeBlk[order]++
	m.freePages += 1 << order
}

// popFree removes and returns a live free head of exactly the given order,
// skipping stale stack entries. It returns false if none exists.
func (m *Memory) popFree(order int) (uint64, bool) {
	list := m.freeList[order]
	for len(list) > 0 {
		f := list[len(list)-1]
		list = list[:len(list)-1]
		if m.isHead(f, order) {
			m.freeList[order] = list
			m.clearHead(f, order)
			m.freeBlk[order]--
			m.freePages -= 1 << order
			return f, true
		}
	}
	m.freeList[order] = list
	return 0, false
}

// Alloc allocates a contiguous block of at least size bytes, rounded up to
// the next power-of-two order. It returns the first frame number of the
// block. The returned frame is aligned to the block size.
func (m *Memory) Alloc(size uint64) (addr.PPN, error) {
	return m.AllocOrder(OrderFor(size))
}

// AllocOrder allocates one block of exactly the given order.
func (m *Memory) AllocOrder(order int) (addr.PPN, error) {
	if order > m.maxOrder {
		m.stats.FailedAllocs++
		return 0, fmt.Errorf("%w: order %d exceeds max %d", ErrOutOfMemory, order, m.maxOrder)
	}
	o := order
	var f uint64
	found := false
	for ; o <= m.maxOrder; o++ {
		if m.freeBlk[o] == 0 {
			continue
		}
		if g, ok := m.popFree(o); ok {
			f, found = g, true
			break
		}
	}
	if !found {
		m.stats.FailedAllocs++
		return 0, fmt.Errorf("%w: no free block of order %d (%s)",
			ErrOutOfMemory, order, humanOrder(order))
	}
	// Split down to the requested order, returning upper halves to the
	// free lists.
	for o > order {
		o--
		m.addFree(f+(1<<o), o)
	}
	m.stats.Allocs++
	if b := BlockBytes(order); b > m.stats.MaxContiguous {
		m.stats.MaxContiguous = b
	}
	return addr.PPN(f), nil
}

// Free returns the block of the given order starting at frame f to the
// allocator, coalescing with free buddies.
func (m *Memory) Free(f addr.PPN, order int) {
	fr := uint64(f)
	if fr&((1<<order)-1) != 0 || fr+(1<<order) > m.frames {
		panic(fmt.Sprintf("phys: Free(%d, order %d): misaligned or out of range", fr, order))
	}
	// Double free: fr already heads a free block at an order it is
	// aligned to. The group orders take one word test.
	doubleFree := m.groups[fr>>MaxOrder][fr>>groupOrder&(chunkGroups-1)]&alignedHeadBits[fr&(1<<groupOrder-1)] != 0
	for o := groupOrder + 1; o <= m.maxOrder && fr&(1<<o-1) == 0; o++ {
		doubleFree = doubleFree || m.isHead(fr, o)
	}
	if doubleFree {
		panic(fmt.Sprintf("phys: double free of frame %d", fr))
	}
	for order < m.maxOrder {
		buddy := fr ^ (1 << order)
		if buddy+(1<<order) > m.frames || !m.isHead(buddy, order) {
			break
		}
		// Detach the buddy (its free-list entry becomes stale).
		m.clearHead(buddy, order)
		m.freeBlk[order]--
		m.freePages -= 1 << order
		if buddy < fr {
			fr = buddy
		}
		order++
	}
	m.addFree(fr, order)
	m.stats.Frees++
}

// FMFI returns the Free Memory Fragmentation Index for the given order: the
// fraction of free memory that is unusable for an allocation of that order
// because it sits in smaller blocks. 0 means perfectly defragmented; 1 means
// no block of the order exists. This is the metric from Gorman et al. used
// by the paper ("0.7 in the FMFI metric").
func (m *Memory) FMFI(order int) float64 {
	if m.freePages == 0 {
		return 1
	}
	var usable uint64 // free pages in blocks of at least order
	for o := order; o <= m.maxOrder; o++ {
		usable += m.freeBlk[o] << o
	}
	return 1 - float64(usable)/float64(m.freePages)
}

// FreeBlockCounts returns the live free-block count per order. Together with
// FreeBytes it fingerprints the allocator's free-list state: two states with
// equal counts at every order are interchangeable for future allocations, so
// leak detectors (the fault-injection sweep, the exhaustion-cycle tests)
// compare it against a baseline after teardown.
func (m *Memory) FreeBlockCounts() []uint64 {
	counts := make([]uint64, m.maxOrder+1)
	copy(counts, m.freeBlk[:m.maxOrder+1])
	return counts
}

// noteFailedAlloc counts an allocation attempt vetoed before reaching the
// buddy search (fault injection), keeping FailedAllocs meaningful for both
// genuine and injected failures.
func (m *Memory) noteFailedAlloc() { m.stats.FailedAllocs++ }

// CanAlloc reports whether a block of the given order is currently available.
func (m *Memory) CanAlloc(order int) bool {
	for o := order; o <= m.maxOrder; o++ {
		if m.freeBlk[o] > 0 {
			return true
		}
	}
	return false
}

// chargeAlloc is used by AllocCosted to fold cost-model cycles into stats.
func (m *Memory) chargeAlloc(cycles uint64) { m.stats.AllocCycles += cycles }

func humanOrder(order int) string {
	return fmt.Sprintf("%dKB", (FrameBytes<<order)/1024)
}
