package chunk

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/l2p"
	"repro/internal/phys"
)

func newStore(t *testing.T, memBytes uint64) (*Store, *phys.Memory, *l2p.Table) {
	t.Helper()
	mem := phys.NewMemory(memBytes)
	alloc := phys.NewAllocator(mem, 0) // no fragmentation in unit tests
	tbl := l2p.New(3)
	s, _, err := NewStoreLadder(alloc, tbl, 0, addr.Page4K, 8*addr.KB, Ladder)
	if err != nil {
		t.Fatal(err)
	}
	return s, mem, tbl
}

func TestNewStoreSingleChunk(t *testing.T) {
	s, mem, tbl := newStore(t, 64*addr.MB)
	if len(s.chunks) != 1 || s.ChunkBytes() != 8*addr.KB {
		t.Errorf("chunks=%d chunkBytes=%d", len(s.chunks), s.ChunkBytes())
	}
	if s.WayBytes() != 8*addr.KB || s.FootprintBytes() != 8*addr.KB {
		t.Errorf("way=%d footprint=%d", s.WayBytes(), s.FootprintBytes())
	}
	if tbl.Used(0, addr.Page4K) != 1 {
		t.Errorf("L2P entries = %d, want 1", tbl.Used(0, addr.Page4K))
	}
	if mem.Stats().MaxContiguous != 8*addr.KB {
		t.Errorf("MaxContiguous = %d", mem.Stats().MaxContiguous)
	}
}

// TestGrowWithinChunk reproduces Figure 3a-b: a way smaller than its chunk
// grows without new allocation.
func TestGrowWithinChunk(t *testing.T) {
	mem := phys.NewMemory(64 * addr.MB)
	alloc := phys.NewAllocator(mem, 0)
	tbl := l2p.New(3)
	s, _, err := NewStoreLadder(alloc, tbl, 0, addr.Page4K, 4*addr.KB, Ladder)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.chunks) != 1 {
		t.Fatalf("chunks = %d", len(s.chunks))
	}
	if _, err := s.Extend(8 * addr.KB); err != nil {
		t.Fatal(err)
	}
	if len(s.chunks) != 1 || tbl.Used(0, addr.Page4K) != 1 {
		t.Error("growing within the chunk must not allocate")
	}
}

// TestGrowToL2PLimit reproduces Figure 3c-d: doubling adds 8KB chunks until
// all 64 (stolen) entries are used at 512KB.
func TestGrowToL2PLimit(t *testing.T) {
	s, _, tbl := newStore(t, 256*addr.MB)
	for target := uint64(16 * addr.KB); target <= 512*addr.KB; target *= 2 {
		if !s.CanExtendInPlace(target) {
			t.Fatalf("CanExtendInPlace(%d) = false", target)
		}
		if _, err := s.Extend(target); err != nil {
			t.Fatalf("Extend(%d): %v", target, err)
		}
	}
	if len(s.chunks) != 64 {
		t.Errorf("chunks = %d, want 64", len(s.chunks))
	}
	if tbl.Used(0, addr.Page4K) != 64 {
		t.Errorf("L2P used = %d, want 64", tbl.Used(0, addr.Page4K))
	}
	// The next doubling cannot be in-place.
	if s.CanExtendInPlace(1 * addr.MB) {
		t.Error("CanExtendInPlace(1MB) = true at 64 chunks of 8KB")
	}
	if _, err := s.Extend(1 * addr.MB); !errors.Is(err, ErrL2PFull) {
		t.Errorf("Extend past L2P limit: err = %v, want ErrL2PFull", err)
	}
	// Failed extension must not leak entries or chunks.
	if len(s.chunks) != 64 || tbl.Used(0, addr.Page4K) != 64 {
		t.Error("failed Extend leaked resources")
	}
}

// TestTransition reproduces Figure 3d-e: the 8KB→1MB chunk-size switch
// collapses 64 entries to 1.
func TestTransition(t *testing.T) {
	s, mem, tbl := newStore(t, 256*addr.MB)
	if _, err := s.Extend(512 * addr.KB); err != nil {
		t.Fatal(err)
	}
	freeBefore := mem.FreeBytes()
	if _, err := s.Transition(1 * addr.MB); err != nil {
		t.Fatal(err)
	}
	if s.ChunkBytes() != 1*addr.MB || len(s.chunks) != 1 {
		t.Errorf("after transition: chunkBytes=%d chunks=%d", s.ChunkBytes(), len(s.chunks))
	}
	if tbl.Used(0, addr.Page4K) != 1 {
		t.Errorf("L2P used = %d, want 1", tbl.Used(0, addr.Page4K))
	}
	// 512KB of 8KB chunks freed, 1MB allocated.
	if got, want := mem.FreeBytes(), freeBefore+512*addr.KB-1*addr.MB; got != want {
		t.Errorf("free bytes = %d, want %d", got, want)
	}
	// Further growth adds 1MB chunks.
	if _, err := s.Extend(2 * addr.MB); err != nil {
		t.Fatal(err)
	}
	if len(s.chunks) != 2 {
		t.Errorf("chunks = %d, want 2", len(s.chunks))
	}
}

// TestFailedTransitionAllocs: a transition that cannot allocate the next
// rung's chunk allocates nothing but its error chain — the rolled-back
// chunk list reuses its old backing array — so an ME-HPT insert retrying
// it under sustained pressure does not regrow the list each time.
func TestFailedTransitionAllocs(t *testing.T) {
	mem := phys.NewMemory(4 * addr.MB)
	alloc := phys.NewAllocator(mem, 0)
	s, _, err := NewStoreLadder(alloc, l2p.New(3), 0, addr.Page4K, 8*addr.KB, Ladder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Extend(512 * addr.KB); err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := alloc.Alloc(8 * addr.KB); err != nil {
			break
		}
	}
	transition := testing.AllocsPerRun(100, func() {
		if _, err := s.Transition(1 * addr.MB); !errors.Is(err, phys.ErrOutOfMemory) {
			t.Fatalf("transition in an exhausted pool: %v", err)
		}
	})
	if s.ChunkBytes() != 8*addr.KB || len(s.chunks) != 64 {
		t.Fatalf("rollback left %d chunks of %d bytes, want 64 of 8KB", len(s.chunks), s.ChunkBytes())
	}
	// The same failure and wrap, without the store: what the errors cost.
	errs := testing.AllocsPerRun(100, func() {
		_, _, err := alloc.Alloc(1 * addr.MB)
		_ = fmt.Errorf("%w: %w", ErrTransitionFailed, err)
	})
	if transition != errs {
		t.Errorf("a failed transition allocates %v objects, its error chain %v", transition, errs)
	}
}

func TestTransitionLadderTop(t *testing.T) {
	if next := nextIn(Ladder, 64*addr.MB); next != 0 {
		t.Errorf("nextIn(Ladder, 64MB) = %d, want 0", next)
	}
	if next := nextIn(Ladder, 8*addr.KB); next != 1*addr.MB {
		t.Errorf("nextIn(Ladder, 8KB) = %d", next)
	}
	if next := nextIn(Ladder, 12345); next != 0 {
		t.Errorf("nextIn(Ladder, off-ladder) = %d, want 0", next)
	}
}

// TestTableII verifies the analytic Table II relationship.
func TestTableII(t *testing.T) {
	cases := []struct {
		chunk, maxWay uint64
	}{
		{8 * addr.KB, 512 * addr.KB},
		{1 * addr.MB, 64 * addr.MB},
		{8 * addr.MB, 512 * addr.MB},
		{64 * addr.MB, 4 * addr.GB},
	}
	for _, c := range cases {
		if got := MaxWayBytes(c.chunk); got != c.maxWay {
			t.Errorf("MaxWayBytes(%d) = %d, want %d", c.chunk, got, c.maxWay)
		}
	}
}

func TestShrink(t *testing.T) {
	s, mem, tbl := newStore(t, 256*addr.MB)
	if _, err := s.Extend(128 * addr.KB); err != nil {
		t.Fatal(err)
	}
	if len(s.chunks) != 16 {
		t.Fatalf("chunks = %d, want 16", len(s.chunks))
	}
	s.ShrinkTo(32 * addr.KB)
	if len(s.chunks) != 4 || tbl.Used(0, addr.Page4K) != 4 {
		t.Errorf("after shrink: chunks=%d l2p=%d, want 4/4", len(s.chunks), tbl.Used(0, addr.Page4K))
	}
	if s.WayBytes() != 32*addr.KB {
		t.Errorf("WayBytes = %d", s.WayBytes())
	}
	s.Free()
	if len(s.chunks) != 0 || tbl.Used(0, addr.Page4K) != 0 {
		t.Error("Free leaked resources")
	}
	if mem.FreeBytes() != mem.TotalBytes() {
		t.Error("Free did not return all memory")
	}
}

func TestSlotAddrWithinChunks(t *testing.T) {
	s, _, _ := newStore(t, 256*addr.MB)
	if _, err := s.Extend(64 * addr.KB); err != nil { // 8 chunks
		t.Fatal(err)
	}
	seen := make(map[addr.PhysAddr]bool)
	for off := uint64(0); off < 64*addr.KB; off += 64 {
		pa := s.SlotAddr(off)
		if seen[pa] {
			t.Fatalf("offset %d maps to duplicate physical address %#x", off, pa)
		}
		seen[pa] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("SlotAddr beyond way did not panic")
		}
	}()
	s.SlotAddr(64 * addr.KB)
}

// TestAllocationFailureRollsBack: an out-of-memory mid-extension must leave
// the store consistent.
func TestAllocationFailureRollsBack(t *testing.T) {
	mem := phys.NewMemory(32 * addr.KB) // room for only 4 chunks
	alloc := phys.NewAllocator(mem, 0)
	tbl := l2p.New(3)
	s, _, err := NewStoreLadder(alloc, tbl, 0, addr.Page4K, 8*addr.KB, Ladder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Extend(256 * addr.KB); err == nil {
		t.Fatal("Extend should have failed")
	}
	if len(s.chunks) != 1 || s.WayBytes() != 8*addr.KB {
		t.Errorf("rollback failed: chunks=%d way=%d", len(s.chunks), s.WayBytes())
	}
	if tbl.Used(0, addr.Page4K) != 1 {
		t.Errorf("L2P leaked: used=%d", tbl.Used(0, addr.Page4K))
	}
}
