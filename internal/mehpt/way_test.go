package mehpt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/chunk"
	"repro/internal/cuckoo"
	"repro/internal/hashfn"
	"repro/internal/l2p"
	"repro/internal/phys"
	"repro/internal/pt"
)

// White-box tests of the in-place resizing index algebra (Section IV-C):
// the properties Figure 5 illustrates, checked directly at the way level.

func newTestWay(t *testing.T, entries uint64) (*way, *phys.Allocator) {
	t.Helper()
	mem := phys.NewMemory(256 * addr.MB)
	alloc := phys.NewAllocator(mem, 0)
	tbl := l2p.New(3)
	st, _, err := chunk.NewStoreLadder(alloc, tbl, 0, addr.Page4K, entries*pt.EntryBytes, chunk.Ladder)
	if err != nil {
		t.Fatal(err)
	}
	return newWay(0, hashfn.New(99), entries, st), alloc
}

// TestLocateUpsizeProperty: during an upsize, every key's location is either
// its old index (live region, or migrated with extra bit 0) or old index +
// oldSize (migrated with extra bit 1) — never anything else.
func TestLocateUpsizeProperty(t *testing.T) {
	w, _ := newTestWay(t, 1024)
	if _, err := w.store.Extend(2048 * pt.EntryBytes); err != nil {
		t.Fatal(err)
	}
	w.beginResize(2048)
	check := func(key uint64, ptrRaw uint16) bool {
		w.ptr = uint64(ptrRaw) % 1024
		idx := w.locate(key)
		oldIdx := w.fn.Hash(key) & 1023
		if oldIdx >= w.ptr {
			return idx == oldIdx // live region: old location
		}
		return idx == oldIdx || idx == oldIdx+1024
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestLocateDownsizeProperty: during a downsize, migrated keys fold into the
// bottom half (MSB dropped); live keys stay put.
func TestLocateDownsizeProperty(t *testing.T) {
	w, _ := newTestWay(t, 1024)
	w.beginResize(512)
	check := func(key uint64, ptrRaw uint16) bool {
		w.ptr = uint64(ptrRaw) % 1024
		idx := w.locate(key)
		oldIdx := w.fn.Hash(key) & 1023
		if oldIdx >= w.ptr {
			return idx == oldIdx
		}
		return idx == (oldIdx&511) && idx < 512
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestLiveRegionPurity: entries inserted during an upsize never land in the
// live region [ptr, oldSize) — the invariant that keeps lookups unambiguous
// (new-table indices are either below ptr or in the grown upper half).
func TestLiveRegionPurity(t *testing.T) {
	w, _ := newTestWay(t, 256)
	if _, err := w.store.Extend(512 * pt.EntryBytes); err != nil {
		t.Fatal(err)
	}
	w.beginResize(512)
	w.ptr = 100
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		key := rng.Uint64() >> 1
		idx := w.locate(key)
		oldIdx := w.fn.Hash(key) & 255
		if oldIdx < w.ptr { // migrated: goes to the new table
			if idx >= w.ptr && idx < 256 {
				t.Fatalf("new-table index %d of key %d inside live region [%d,256)",
					idx, key, w.ptr)
			}
		}
	}
}

// TestFinishResizeDownsizeTruncates: after a completed downsize the slot
// array shrinks and the trailing chunks are released.
func TestFinishResizeDownsizeTruncates(t *testing.T) {
	w, _ := newTestWay(t, 1024)
	footBefore := w.store.FootprintBytes()
	w.beginResize(512)
	w.ptr = 1024 // pretend the sweep completed with nothing live
	w.finishResize()
	if w.size != 512 || uint64(len(w.slots)) != 512 {
		t.Errorf("size=%d slots=%d after downsize", w.size, len(w.slots))
	}
	if w.store.FootprintBytes() >= footBefore {
		t.Errorf("chunks not released: %d -> %d", footBefore, w.store.FootprintBytes())
	}
}

// TestFinishResizePanicsOnLiveEntryBeyondNewSize: committing a downsize with
// a stranded entry must fail loudly, not corrupt silently.
func TestFinishResizePanicsOnLiveEntryBeyondNewSize(t *testing.T) {
	w, _ := newTestWay(t, 256)
	w.beginResize(128)
	w.ptr = 256
	w.slots[200] = cuckoo.Entry{Key: 42, Val: 1}
	defer func() {
		if recover() == nil {
			t.Error("finishResize accepted a stranded entry")
		}
	}()
	w.finishResize()
}

// TestBeginResizePanicsWhenResizing: overlapping resizes on one way are a
// programming error.
func TestBeginResizePanicsWhenResizing(t *testing.T) {
	w, _ := newTestWay(t, 256)
	if _, err := w.store.Extend(512 * pt.EntryBytes); err != nil {
		t.Fatal(err)
	}
	w.beginResize(512)
	defer func() {
		if recover() == nil {
			t.Error("nested beginResize accepted")
		}
	}()
	w.beginResize(1024)
}

// TestCapacityAndFreeDuringResize: capacity tracks the resize target so the
// occupancy thresholds and insertion weights use the right denominator.
func TestCapacityAndFreeDuringResize(t *testing.T) {
	w, _ := newTestWay(t, 256)
	if w.capacity() != 256 {
		t.Fatalf("capacity = %d", w.capacity())
	}
	w.occ = 100
	if w.free() != 156 {
		t.Fatalf("free = %d", w.free())
	}
	if _, err := w.store.Extend(512 * pt.EntryBytes); err != nil {
		t.Fatal(err)
	}
	w.beginResize(512)
	if w.capacity() != 512 || w.free() != 412 {
		t.Errorf("mid-resize capacity=%d free=%d", w.capacity(), w.free())
	}
	if w.occupancy() != 100.0/512 {
		t.Errorf("occupancy = %v", w.occupancy())
	}
}

// TestSlotPAUniqueAcrossWaySpan: every slot of a multi-chunk way resolves
// to a distinct physical address.
func TestSlotPAUniqueAcrossWaySpan(t *testing.T) {
	w, _ := newTestWay(t, 4096) // 256KB way = 32 8KB chunks
	seen := make(map[addr.PhysAddr]bool, 4096)
	for i := uint64(0); i < 4096; i++ {
		pa := w.slotPA(i)
		if seen[pa] {
			t.Fatalf("slot %d aliases another slot at %#x", i, pa)
		}
		seen[pa] = true
	}
}
