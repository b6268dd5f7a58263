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

// TestNewMemoryHeap pins the host cost of the free map: a 64GB machine's
// head bits take about 2 bits per 4KB frame, so construction grows the
// live heap by at most 4.5 MiB.
func TestNewMemoryHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMemory(64 * addr.GB)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	grew := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("NewMemory(64GB) grew the heap by %.2f MiB", grew/(1<<20))
	if grew > 4.5*(1<<20) {
		t.Errorf("NewMemory(64GB) grew the heap by %.2f MiB, want at most 4.5 MiB", grew/(1<<20))
	}
}
