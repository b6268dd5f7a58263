package cache

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/addr"
)

// smallHierarchy returns a hierarchy with the given L1 behind a 4KB L2
// and a 16KB L3, with distinct latencies so a test can tell which level
// served an access.
func smallHierarchy(l1 Config) *Hierarchy {
	return NewHierarchy(HierarchyConfig{
		L1:          l1,
		L2:          Config{SizeBytes: 4 * addr.KB, Ways: 4, LineBytes: 64, Latency: 10},
		L3:          Config{SizeBytes: 16 * addr.KB, Ways: 4, LineBytes: 64, Latency: 30},
		DRAMLatency: 100,
	})
}

func TestHitAfterFill(t *testing.T) {
	h := smallHierarchy(Config{SizeBytes: 4 * addr.KB, Ways: 4, LineBytes: 64, Latency: 2})
	pa := addr.PhysAddr(0x1000)
	if lat := h.Access(pa); lat != 100 {
		t.Fatalf("cold access latency = %d, want 100 (DRAM)", lat)
	}
	if lat := h.Access(pa); lat != 2 {
		t.Fatalf("access after fill latency = %d, want 2 (L1)", lat)
	}
	// Same line, different byte.
	if lat := h.Access(pa + 63); lat != 2 {
		t.Fatalf("same-line access latency = %d, want 2 (L1)", lat)
	}
	if lat := h.Access(pa + 64); lat != 100 {
		t.Fatalf("next-line access latency = %d, want 100 (DRAM)", lat)
	}
}

func TestLRUEviction(t *testing.T) {
	// L1 of 2 ways, 2 sets of 64B lines = 256B cache.
	h := smallHierarchy(Config{SizeBytes: 256, Ways: 2, LineBytes: 64, Latency: 1})
	// Three lines mapping to the same L1 set (stride = sets*64 = 128).
	a, b, d := addr.PhysAddr(0), addr.PhysAddr(128), addr.PhysAddr(256)
	h.Access(a)
	h.Access(b)
	h.Access(a) // make a MRU
	h.Access(d) // evicts b (LRU) from L1
	if lat := h.Access(a); lat != 1 {
		t.Errorf("MRU line latency = %d, want 1 (L1): evicted", lat)
	}
	if lat := h.Access(d); lat != 1 {
		t.Errorf("new line latency = %d, want 1 (L1): missing", lat)
	}
	if lat := h.Access(b); lat != 10 {
		t.Errorf("LRU line latency = %d, want 10 (L2): survived in L1", lat)
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

// TestSixteenWayHitAtLRU fills a fully associative 16-way L1 and then hits
// its LRU line, the one hit whose recency update shifts a nibble out of
// the top of the word.
func TestSixteenWayHitAtLRU(t *testing.T) {
	h := smallHierarchy(Config{SizeBytes: 16 * 64, Ways: 16, LineBytes: 64, Latency: 2})
	line := func(i int) addr.PhysAddr { return addr.PhysAddr(i * 64) }
	for i := 0; i < 16; i++ {
		h.Access(line(i))
	}
	if lat := h.Access(line(0)); lat != 2 {
		t.Fatalf("LRU line latency = %d, want 2 (L1)", lat)
	}
	want := []uint64{1} // line 0 first, then lines 15 down to 1
	for i := 15; i >= 1; i-- {
		want = append(want, uint64(i)+1)
	}
	if got := h.State().Levels[0].Tags; !reflect.DeepEqual(got, want) {
		t.Fatalf("L1 recency order after the hit = %v, want %v", got, want)
	}
	h.Access(line(16)) // evicts line 1, now the LRU line
	if lat := h.Access(line(0)); lat != 2 {
		t.Errorf("promoted line latency = %d, want 2 (L1): evicted", lat)
	}
	if lat := h.Access(line(1)); lat != 10 {
		t.Errorf("LRU line latency = %d, want 10 (L2): survived in L1", lat)
	}
}

// TestOneWayLevel drives a direct-mapped L1: every set holds one line, so
// a hit and a fill both act on recency position 0.
func TestOneWayLevel(t *testing.T) {
	h := smallHierarchy(Config{SizeBytes: 256, Ways: 1, LineBytes: 64, Latency: 1})
	a, b := addr.PhysAddr(0), addr.PhysAddr(256) // same L1 set
	h.Access(a)
	if lat := h.Access(a); lat != 1 {
		t.Fatalf("resident line latency = %d, want 1 (L1)", lat)
	}
	h.Access(b)
	if lat := h.Access(a); lat != 10 {
		t.Fatalf("displaced line latency = %d, want 10 (L2)", lat)
	}
	if got, want := h.State().Levels[0].Tags, []uint64{1, 0, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("L1 tags = %v, want %v", got, want)
	}
}

// TestNewHierarchyRejectsWideLevel checks that a level wider than one
// recency word can order panics with a message naming the limit.
func TestNewHierarchyRejectsWideLevel(t *testing.T) {
	cfg := TableIII()
	cfg.L3.Ways = 17
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "16-way limit") {
			t.Fatalf("NewHierarchy with a 17-way L3 panicked with %q, want a message naming the 16-way limit", msg)
		}
	}()
	NewHierarchy(cfg)
}
