package phys

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestOrderFor(t *testing.T) {
	cases := []struct {
		size  uint64
		order int
	}{
		{1, 0},
		{4 * addr.KB, 0},
		{4*addr.KB + 1, 1},
		{8 * addr.KB, 1},
		{1 * addr.MB, 8},
		{8 * addr.MB, 11},
		{64 * addr.MB, 14},
		{1 * addr.GB, 18},
	}
	for _, c := range cases {
		if got := OrderFor(c.size); got != c.order {
			t.Errorf("OrderFor(%d) = %d, want %d", c.size, got, c.order)
		}
		if c.size > 1 && BlockBytes(c.order) < c.size {
			t.Errorf("BlockBytes(OrderFor(%d)) = %d too small", c.size, BlockBytes(c.order))
		}
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	m := NewMemory(16 * addr.MB)
	if m.FreeBytes() != 16*addr.MB {
		t.Fatalf("FreeBytes = %d", m.FreeBytes())
	}
	ppn, err := m.Alloc(1 * addr.MB)
	if err != nil {
		t.Fatal(err)
	}
	if m.FreeBytes() != 15*addr.MB {
		t.Errorf("FreeBytes after alloc = %d", m.FreeBytes())
	}
	if uint64(ppn)%(1<<8) != 0 {
		t.Errorf("1MB block not aligned: frame %d", ppn)
	}
	m.Free(ppn, OrderFor(1*addr.MB))
	if m.FreeBytes() != 16*addr.MB {
		t.Errorf("FreeBytes after free = %d", m.FreeBytes())
	}
	// After full free, a maximal allocation must succeed again (coalescing).
	if _, err := m.Alloc(16 * addr.MB); err != nil {
		t.Errorf("cannot re-allocate whole memory after coalescing: %v", err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := NewMemory(1 * addr.MB)
	var got []addr.PPN
	for {
		p, err := m.Alloc(4 * addr.KB)
		if err != nil {
			break
		}
		got = append(got, p)
	}
	if len(got) != 256 {
		t.Errorf("allocated %d 4KB frames from 1MB, want 256", len(got))
	}
	if _, err := m.Alloc(4 * addr.KB); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("expected ErrOutOfMemory, got %v", err)
	}
	if m.FreeBytes() != 0 {
		t.Errorf("FreeBytes = %d after exhaustion", m.FreeBytes())
	}
}

func TestUniqueNonOverlapping(t *testing.T) {
	m := NewMemory(8 * addr.MB)
	rng := rand.New(rand.NewSource(1))
	type block struct {
		ppn   addr.PPN
		order int
	}
	var live []block
	owner := make(map[uint64]int) // frame -> block idx
	for step := 0; step < 2000; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			order := rng.Intn(5)
			ppn, err := m.AllocOrder(order)
			if err != nil {
				continue
			}
			for f := uint64(ppn); f < uint64(ppn)+(1<<order); f++ {
				if prev, clash := owner[f]; clash {
					t.Fatalf("frame %d double-allocated (blocks %d and %d)", f, prev, len(live))
				}
				owner[f] = len(live)
			}
			live = append(live, block{ppn, order})
		} else {
			i := rng.Intn(len(live))
			b := live[i]
			m.Free(b.ppn, b.order)
			for f := uint64(b.ppn); f < uint64(b.ppn)+(1<<b.order); f++ {
				delete(owner, f)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	// Invariant: free bytes + live bytes == capacity.
	var liveBytes uint64
	for _, b := range live {
		liveBytes += BlockBytes(b.order)
	}
	if m.FreeBytes()+liveBytes != m.TotalBytes() {
		t.Errorf("accounting: free %d + live %d != total %d",
			m.FreeBytes(), liveBytes, m.TotalBytes())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := NewMemory(1 * addr.MB)
	p, err := m.Alloc(4 * addr.KB)
	if err != nil {
		t.Fatal(err)
	}
	m.Free(p, 0)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	m.Free(p, 0)
}

func TestFMFIFreshMemory(t *testing.T) {
	m := NewMemory(64 * addr.MB)
	// Fresh memory is fully coalesced: no fragmentation at any order.
	for o := 0; o <= OrderFor(64*addr.MB); o++ {
		if f := m.FMFI(o); f != 0 {
			t.Errorf("fresh FMFI(order %d) = %v, want 0", o, f)
		}
	}
}

func TestFMFIShredded(t *testing.T) {
	m := NewMemory(1 * addr.MB)
	// Allocate everything as 4KB frames, free every other one: all free
	// memory is in order-0 blocks.
	var frames []addr.PPN
	for {
		p, err := m.Alloc(4 * addr.KB)
		if err != nil {
			break
		}
		frames = append(frames, p)
	}
	for i, p := range frames {
		if i%2 == 0 {
			m.Free(p, 0)
		}
	}
	if f := m.FMFI(0); f != 0 {
		t.Errorf("FMFI(0) = %v, want 0", f)
	}
	if f := m.FMFI(1); f != 1 {
		t.Errorf("FMFI(order 1) = %v, want 1 (no coalescible blocks)", f)
	}
	if m.CanAlloc(1) {
		t.Error("CanAlloc(order 1) = true on fully shredded memory")
	}
	if _, err := m.Alloc(8 * addr.KB); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("8KB alloc should fail, got %v", err)
	}
}

func TestStatsTracking(t *testing.T) {
	m := NewMemory(16 * addr.MB)
	p1, _ := m.Alloc(4 * addr.KB)
	p2, _ := m.Alloc(1 * addr.MB)
	s := m.Stats()
	if s.Allocs != 2 {
		t.Errorf("Allocs = %d", s.Allocs)
	}
	if s.MaxContiguous != 1*addr.MB {
		t.Errorf("MaxContiguous = %d", s.MaxContiguous)
	}
	m.Free(p1, 0)
	m.Free(p2, OrderFor(1*addr.MB))
	if m.Stats().Frees != 2 {
		t.Errorf("Frees = %d", m.Stats().Frees)
	}
	m.ResetStats()
	if s := m.Stats(); s.Allocs != 0 || s.MaxContiguous != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
}

func TestAlignmentProperty(t *testing.T) {
	m := NewMemory(64 * addr.MB)
	f := func(ordRaw uint8) bool {
		order := int(ordRaw) % 10
		p, err := m.AllocOrder(order)
		if err != nil {
			return true // exhaustion is fine
		}
		ok := uint64(p)%(1<<order) == 0
		m.Free(p, order)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
