package cache

import (
	"testing"

	"repro/internal/addr"
)

// TestAccessHitAllocFree guards the data-access path: a warm hierarchy
// access (L1 hit) must never allocate.
func TestAccessHitAllocFree(t *testing.T) {
	h := NewHierarchy(TableIII())
	pa := addr.PhysAddr(0x4000)
	h.Access(pa)
	if n := testing.AllocsPerRun(1000, func() {
		if lat := h.Access(pa); lat == 0 {
			t.Fatal("zero latency")
		}
	}); n != 0 {
		t.Errorf("warm Access allocates %v objects per call", n)
	}
}

// TestAccessMissAllocFree: a miss walks all three levels and fills each via
// the flat tag arrays — still no allocation, even while evicting.
func TestAccessMissAllocFree(t *testing.T) {
	h := NewHierarchy(TableIII())
	var pa addr.PhysAddr
	if n := testing.AllocsPerRun(1000, func() {
		pa += 64
		h.Access(pa)
		h.AccessPT(pa + 1<<30)
	}); n != 0 {
		t.Errorf("cold Access/AccessPT allocates %v objects per call", n)
	}
}
