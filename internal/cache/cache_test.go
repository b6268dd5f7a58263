package cache

import (
	"testing"

	"repro/internal/addr"
)

func TestHitAfterFill(t *testing.T) {
	c := New(Config{SizeBytes: 4 * addr.KB, Ways: 4, LineBytes: 64, Latency: 2})
	pa := addr.PhysAddr(0x1000)
	if c.Lookup(pa) {
		t.Fatal("cold lookup hit")
	}
	c.Fill(pa)
	if !c.Lookup(pa) {
		t.Fatal("lookup after fill missed")
	}
	// Same line, different byte.
	if !c.Lookup(pa + 63) {
		t.Fatal("same-line lookup missed")
	}
	if c.Lookup(pa + 64) {
		t.Fatal("next-line lookup hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 2 ways, 2 sets of 64B lines = 256B cache.
	c := New(Config{SizeBytes: 256, Ways: 2, LineBytes: 64, Latency: 1})
	// Three lines mapping to the same set (stride = sets*64 = 128).
	a, b, d := addr.PhysAddr(0), addr.PhysAddr(128), addr.PhysAddr(256)
	c.Fill(a)
	c.Fill(b)
	c.Lookup(a) // make a MRU
	c.Fill(d)   // evicts b (LRU)
	if !c.Lookup(a) {
		t.Error("MRU line evicted")
	}
	if c.Lookup(b) {
		t.Error("LRU line survived")
	}
	if !c.Lookup(d) {
		t.Error("new line missing")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(TableIII())
	pa := addr.PhysAddr(0x40000)
	if lat := h.Access(pa); lat != 200 {
		t.Errorf("cold access latency = %d, want 200 (DRAM)", lat)
	}
	if lat := h.Access(pa); lat != 2 {
		t.Errorf("hot access latency = %d, want 2 (L1)", lat)
	}
	if h.DRAMAccesses() != 1 {
		t.Errorf("DRAM accesses = %d", h.DRAMAccesses())
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy(TableIII())
	target := addr.PhysAddr(0)
	h.Access(target)
	// Evict target from L1 (32KB, 8w, 64 sets): touch 8 conflicting lines
	// at stride 64*64 = 4KB.
	for i := 1; i <= 8; i++ {
		h.Access(target + addr.PhysAddr(i*32*1024))
	}
	lat := h.Access(target)
	if lat != 16 {
		t.Errorf("latency after L1 eviction = %d, want 16 (L2)", lat)
	}
}

func TestStatsCount(t *testing.T) {
	h := NewHierarchy(TableIII())
	h.Access(0x1000)
	h.Access(0x1000)
	l1 := h.Level(0).Stats()
	if l1.Hits != 1 || l1.Misses != 1 {
		t.Errorf("L1 stats = %+v", l1)
	}
}
