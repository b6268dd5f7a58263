package phys

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// TestPaperAnchorCosts verifies the cost model reproduces the paper's
// Section III measurements exactly at the anchor sizes and 0.7 FMFI.
func TestPaperAnchorCosts(t *testing.T) {
	anchors := []struct {
		size   uint64
		cycles uint64
	}{
		{4 * addr.KB, 4_000},
		{8 * addr.KB, 5_000},
		{1 * addr.MB, 750_000},
		{8 * addr.MB, 13_000_000},
		{64 * addr.MB, 120_000_000},
	}
	for _, a := range anchors {
		got := DefaultCostModel.Cycles(a.size, 0.7)
		// The anchor decomposition (base + frag*1.0) must reconstruct the
		// measured number to within rounding.
		if diff := int64(got) - int64(a.cycles); diff < -1 || diff > 1 {
			t.Errorf("Cycles(%d, 0.7) = %d, want %d", a.size, got, a.cycles)
		}
	}
}

func TestCostMonotonicInSize(t *testing.T) {
	prev := uint64(0)
	for _, size := range []uint64{4 * addr.KB, 8 * addr.KB, 64 * addr.KB,
		1 * addr.MB, 8 * addr.MB, 64 * addr.MB, 256 * addr.MB} {
		c := DefaultCostModel.Cycles(size, 0.7)
		if c <= prev {
			t.Errorf("cost not increasing at size %d: %d <= %d", size, c, prev)
		}
		prev = c
	}
}

func TestCostMonotonicInFragmentation(t *testing.T) {
	for _, size := range []uint64{8 * addr.KB, 1 * addr.MB, 64 * addr.MB} {
		prev := uint64(0)
		for _, f := range []float64{0, 0.2, 0.4, 0.6, 0.7, 0.8} {
			c := DefaultCostModel.Cycles(size, f)
			if c < prev {
				t.Errorf("cost decreasing in fmfi at size %d, fmfi %v", size, f)
			}
			prev = c
		}
	}
}

func TestCostDefragmentedFloor(t *testing.T) {
	// At zero fragmentation only the zeroing floor remains, which is far
	// cheaper than the fragmented cost for large blocks.
	c0 := DefaultCostModel.Cycles(64*addr.MB, 0)
	c7 := DefaultCostModel.Cycles(64*addr.MB, 0.7)
	if c0*10 > c7 {
		t.Errorf("defragmented 64MB cost %d not ≪ fragmented cost %d", c0, c7)
	}
}

func TestAllocatorCharges(t *testing.T) {
	mem := NewMemory(16 * addr.MB)
	a := NewAllocator(mem, 0.7)
	_, cycles, err := a.Alloc(1 * addr.MB)
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultCostModel.Cycles(1*addr.MB, 0.7)
	if cycles != want {
		t.Errorf("alloc cycles = %d, want %d", cycles, want)
	}
	if mem.Stats().AllocCycles != want {
		t.Errorf("stats cycles = %d, want %d", mem.Stats().AllocCycles, want)
	}
}

func TestAllocatorFailureStillCosts(t *testing.T) {
	mem := NewMemory(1 * addr.MB)
	a := NewAllocator(mem, 0.7)
	_, cycles, err := a.Alloc(64 * addr.MB)
	if err == nil {
		t.Fatal("expected failure allocating 64MB from 1MB memory")
	}
	if cycles == 0 {
		t.Error("failed allocation should still report search cost")
	}
}

func TestFragmenterReachesTarget(t *testing.T) {
	mem := NewMemory(4 * addr.GB)
	fr := NewFragmenter(mem)
	refOrder := OrderFor(64 * addr.MB)
	rng := rand.New(rand.NewSource(7))
	const target, freeFrac = 0.7, 0.3
	if err := fr.Fragment(target, freeFrac, refOrder, rng); err != nil {
		t.Fatal(err)
	}
	got := mem.FMFI(refOrder)
	if got < target-0.15 || got > target+0.15 {
		t.Errorf("FMFI = %v, want ≈ %v", got, target)
	}
	free := float64(mem.FreeBytes()) / float64(mem.TotalBytes())
	if free < freeFrac-0.1 || free > freeFrac+0.1 {
		t.Errorf("free fraction = %v, want ≈ %v", free, freeFrac)
	}
	// At 0.7 there should still be at least one intact 64MB region.
	if !mem.CanAlloc(refOrder) {
		t.Error("no 64MB block available at FMFI 0.7; paper expects success")
	}
}

// TestFragmenterExtreme reproduces the paper's failure mode: above 0.7 FMFI
// a 64MB contiguous allocation fails while small chunks still succeed.
func TestFragmenterExtreme(t *testing.T) {
	mem := NewMemory(512 * addr.MB)
	fr := NewFragmenter(mem)
	refOrder := OrderFor(64 * addr.MB)
	rng := rand.New(rand.NewSource(3))
	if err := fr.Fragment(1.0, 0.3, refOrder, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.AllocOrder(refOrder); err == nil {
		t.Error("64MB allocation succeeded at FMFI 1.0; paper expects failure")
	}
	if _, err := mem.Alloc(4 * addr.KB); err != nil {
		t.Errorf("4KB allocation failed under fragmentation: %v", err)
	}
}
