package phys

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/addr"
)

// heldBlock is one allocation the fuzz test holds.
type heldBlock struct {
	base  addr.PPN
	order int
}

// FuzzMemoryOps decodes the input into a sequence of 2-byte ops — alloc at
// orders 0–7, free, compact, double free, State→RestoreMemory→State — over
// a buddy allocator of an irregular frame count. After every op the free
// blocks and the held blocks must tile the frame range exactly, the free
// walk must ascend and sum to FreeBytes, and its per-order counts must
// equal FreeBlockCounts.
func FuzzMemoryOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 0, 5, 0, 3, 1, 7, 0})
	f.Add([]byte{200, 2, 7, 2, 7, 1, 3, 3, 1, 6, 3, 0, 5, 0, 6, 5})
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		frames := 64 + uint64(data[0])*7
		m := NewMemory(frames * FrameBytes)
		var held []heldBlock
		for i := 1; i+2 <= len(data) && i < 2*256; i += 2 {
			kind, arg := data[i]%8, int(data[i+1])
			switch kind {
			case 0, 1, 2:
				order := arg % 8
				if ppn, err := m.AllocOrder(order); err == nil {
					held = append(held, heldBlock{ppn, order})
				} else if m.CanAlloc(order) {
					t.Fatalf("op %d: AllocOrder(%d) failed while CanAlloc reports a block: %v", i/2, order, err)
				}
			case 3, 4:
				if len(held) > 0 {
					j := arg % len(held)
					m.Free(held[j].base, held[j].order)
					held = append(held[:j], held[j+1:]...)
				}
			case 5:
				st := m.State()
				r, err := RestoreMemory(st)
				if err != nil {
					t.Fatalf("op %d: RestoreMemory: %v", i/2, err)
				}
				if got := r.State(); !reflect.DeepEqual(got, st) {
					t.Fatalf("op %d: State→RestoreMemory→State differs", i/2)
				}
				m = r
			case 6:
				mv := NewMovable(func(old, new addr.PPN, order int) {
					for j := range held {
						if held[j].base == old {
							held[j].base = new
						}
					}
				})
				for _, b := range held {
					mv.Add(b.base, b.order)
				}
				m.Compact(mv, arg%8)
			case 7:
				var head uint64
				found := false
				m.VisitFreeBlocks(func(h uint64, _ int) {
					if !found {
						head, found = h, true
					}
				})
				if found && !panics(func() { m.Free(addr.PPN(head), 0) }) {
					t.Fatalf("op %d: freeing free head %d did not panic", i/2, head)
				}
			}
			checkFreeMap(t, i/2, m, held)
		}
	})
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// checkFreeMap verifies that the free blocks and the held blocks tile the
// frame range, that VisitFreeBlocks ascends, and that its totals match the
// allocator's counters.
func checkFreeMap(t *testing.T, op int, m *Memory, held []heldBlock) {
	t.Helper()
	owner := make([]int8, m.Frames()) // 0 unclaimed, 1 free, 2 held
	claim := func(base uint64, order int, who int8) {
		span := uint64(1) << order
		if base%span != 0 || base+span > m.Frames() {
			t.Fatalf("op %d: block %d/o%d misaligned or out of range", op, base, order)
		}
		for f := base; f < base+span; f++ {
			if owner[f] != 0 {
				t.Fatalf("op %d: frame %d claimed twice", op, f)
			}
			owner[f] = who
		}
	}
	var freeFrames uint64
	counts := make([]uint64, len(m.FreeBlockCounts()))
	prev := int64(-1)
	m.VisitFreeBlocks(func(head uint64, order int) {
		if int64(head) <= prev {
			t.Fatalf("op %d: free head %d visited after %d", op, head, prev)
		}
		prev = int64(head)
		claim(head, order, 1)
		freeFrames += 1 << order
		counts[order]++
	})
	for _, b := range held {
		claim(uint64(b.base), b.order, 2)
	}
	for f, who := range owner {
		if who == 0 {
			t.Fatalf("op %d: frame %d is neither free nor held", op, f)
		}
	}
	if freeFrames*FrameBytes != m.FreeBytes() {
		t.Fatalf("op %d: free walk sums %d frames, FreeBytes says %d", op, freeFrames, m.FreeBytes()/FrameBytes)
	}
	if want := m.FreeBlockCounts(); !reflect.DeepEqual(counts, want) {
		t.Fatalf("op %d: free walk counts %v, FreeBlockCounts %v", op, counts, want)
	}
}

// TestNewMemoryHeap pins the host cost of the free map: a fresh 64GB
// machine holds only the bitmaps of orders above groupOrder, about 64 KiB,
// since no gigabyte has been split below 128KB yet, so construction
// allocates at most 256 KiB. It counts bytes allocated, not the live heap,
// which a GC of earlier garbage would make read low.
func TestNewMemoryHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMemory(64 * addr.GB)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	grew := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("NewMemory(64GB) allocated %.1f KiB", grew/(1<<10))
	if grew > 256*(1<<10) {
		t.Errorf("NewMemory(64GB) allocated %.1f KiB, want at most 256 KiB", grew/(1<<10))
	}
}

// TestChunksAcrossGigabytes runs a memory of four whole gigabytes and a
// 1000-frame tail, five chunks of group words, with chunks 1, 3 and the
// tail's touched and 0 and 2 absent around them. Allocs and frees cross
// the chunk boundaries, the free walk must tile the range over the absent
// chunks, State→RestoreMemory→State must be exact and keep them absent,
// and double frees must panic whether or not the chunk is present.
func TestChunksAcrossGigabytes(t *testing.T) {
	const gb = uint64(1) << MaxOrder
	m := NewMemory((4*gb + 1000) * FrameBytes)
	present := func(want ...bool) {
		t.Helper()
		for c, w := range want {
			if got := m.groups[c] != &absentChunk; got != w {
				t.Fatalf("chunk %d present = %v, want %v", c, got, w)
			}
		}
	}
	// Only the tail's order-5 and order-3 blocks have group-order heads.
	present(false, false, false, false, true)
	checkFreeMap(t, 0, m, nil)

	var held []heldBlock
	alloc := func(order int) addr.PPN {
		t.Helper()
		ppn, err := m.AllocOrder(order)
		if err != nil {
			t.Fatalf("AllocOrder(%d): %v", order, err)
		}
		held = append(held, heldBlock{ppn, order})
		return ppn
	}
	release := func(base addr.PPN, order int) {
		t.Helper()
		for j, b := range held {
			if b == (heldBlock{base, order}) {
				held = append(held[:j], held[j+1:]...)
				m.Free(base, order)
				return
			}
		}
		t.Fatalf("block %d/o%d is not held", base, order)
	}
	groupHeads := func() []uint64 {
		var heads []uint64
		m.VisitFreeBlocks(func(h uint64, o int) {
			if o <= groupOrder {
				heads = append(heads, h)
			}
		})
		return heads
	}
	// Take every gigabyte whole, then the tail: nothing is free.
	for range 4 {
		alloc(MaxOrder)
	}
	for _, o := range []int{9, 8, 7, 6, 5, 3} {
		alloc(o)
	}
	if m.FreeBytes() != 0 {
		t.Fatalf("%d bytes free after taking every block", m.FreeBytes())
	}
	checkFreeMap(t, 1, m, held)

	// Splitting gigabyte 1 down to order 0 touches chunk 1; taking every
	// piece of it leaves gigabyte 3 the only free block, so the next split
	// touches chunk 3.
	release(addr.PPN(gb), MaxOrder)
	alloc(0)
	for o := MaxOrder - 1; o >= 0; o-- {
		alloc(o)
	}
	release(addr.PPN(3*gb), MaxOrder)
	alloc(3)
	present(false, true, false, true, true)
	checkFreeMap(t, 2, m, held)

	// Free frame 1 of gigabyte 1, the first group of chunk 1: free
	// group-order heads now sit on both sides of absent chunk 2, and the
	// walk must step over absent chunk 0 to the first and over chunk 2 to
	// the rest.
	release(addr.PPN(gb+1), 0)
	checkFreeMap(t, 3, m, held)
	if heads := groupHeads(); len(heads) < 2 || heads[0] != gb+1 || heads[1] < 3*gb {
		t.Fatalf("group-order free heads %v, want frame %d then gigabyte 3's", heads, gb+1)
	}
	// The first order-0 alloc takes frame gb+1 back from chunk 1; the
	// second finds none left there and splits a block of chunk 3.
	if p := uint64(alloc(0)); p != gb+1 {
		t.Fatalf("first order-0 alloc got frame %d, want %d", p, gb+1)
	}
	if p := uint64(alloc(0)); p < 3*gb || p >= 4*gb {
		t.Fatalf("second order-0 alloc got frame %d, want one in gigabyte 3", p)
	}
	release(addr.PPN(gb+1), 0)
	checkFreeMap(t, 4, m, held)

	st := m.State()
	r, err := RestoreMemory(st)
	if err != nil {
		t.Fatalf("RestoreMemory: %v", err)
	}
	if got := r.State(); !reflect.DeepEqual(got, st) {
		t.Fatal("State→RestoreMemory→State differs")
	}
	m = r
	// Restore allocates the chunks that hold a free group-order head: not
	// the fully allocated tail's.
	present(false, true, false, true, false)
	checkFreeMap(t, 5, m, held)

	// A double free panics on a group-order head in either present chunk,
	// and in an absent one on a freed gigabyte, whose head is above
	// groupOrder.
	heads := groupHeads()
	for _, h := range []uint64{gb + 1, heads[len(heads)-1]} {
		if !panics(func() { m.Free(addr.PPN(h), 0) }) {
			t.Errorf("freeing free frame %d again did not panic", h)
		}
	}
	release(0, MaxOrder)
	if !panics(func() { m.Free(0, MaxOrder) }) {
		t.Error("freeing free gigabyte 0 again did not panic")
	}
	if !panics(func() { m.Free(0, 0) }) {
		t.Error("freeing a frame of free gigabyte 0 did not panic")
	}
	present(false, true, false, true, false)

	// Give every block back: the pieces coalesce to whole gigabytes.
	for len(held) > 0 {
		b := held[len(held)-1]
		release(b.base, b.order)
	}
	checkFreeMap(t, 6, m, nil)
	if got := m.FreeBlockCounts()[MaxOrder]; got != 4 {
		t.Errorf("%d free gigabytes after freeing everything, want 4", got)
	}
}
