package tlb

import (
	"testing"

	"repro/internal/addr"
)

// TestLookupHitAllocFree guards the steady-state translation path: a TLB
// hit (and the MRU bookkeeping it performs) must never allocate.
func TestLookupHitAllocFree(t *testing.T) {
	tb := New(Config{Entries: 64, Ways: 4, Latency: 2})
	tb.Insert(42, 1)
	tb.Insert(43, 2)
	if n := testing.AllocsPerRun(1000, func() {
		// Alternate so the MRU copy-shift actually moves entries.
		if !hit(tb, 42) || !hit(tb, 43) {
			t.Fatal("warm lookup missed")
		}
	}); n != 0 {
		t.Errorf("TLB hit allocates %v objects per call", n)
	}
}

// TestMissInsertFlushAllocFree covers the rest of the steady-state TLB
// surface: misses, re-inserts (with eviction), and Flush all reuse the flat
// tag array in place.
func TestMissInsertFlushAllocFree(t *testing.T) {
	tb := New(Config{Entries: 16, Ways: 4, Latency: 2})
	var vpn addr.VPN
	if n := testing.AllocsPerRun(1000, func() {
		vpn++
		if hit(tb, vpn) {
			t.Fatal("cold lookup hit")
		}
		tb.Insert(vpn, uint64(vpn))
	}); n != 0 {
		t.Errorf("TLB miss+insert allocates %v objects per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		tb.Flush()
	}); n != 0 {
		t.Errorf("TLB Flush allocates %v objects per call", n)
	}
}

// TestHierarchyLookupAllocFree extends the guard to the two-level stack the
// MMU actually queries, including the L2-refill path on an L1 miss.
func TestHierarchyLookupAllocFree(t *testing.T) {
	h := NewTableIII()
	va := addr.VirtAddr(0x1234000)
	h.Insert(va, addr.Page4K, 9)
	if n := testing.AllocsPerRun(1000, func() {
		if r, _, _ := h.Lookup(va, addr.Page4K); r == MissAll {
			t.Fatal("warm hierarchy lookup missed")
		}
	}); n != 0 {
		t.Errorf("hierarchy lookup allocates %v objects per call", n)
	}

	// Five pages of one 4-way L1 set, looked up in insertion order: the
	// first was evicted from L1 by the fifth, and each refill evicts the
	// next, so every lookup hits L2 and refills L1.
	var vas [5]addr.VirtAddr
	for i := range vas {
		vas[i] = addr.VirtAddr(0x4000_0000 + i*16*4096)
		h.Insert(vas[i], addr.Page4K, uint64(i))
	}
	var i int
	if n := testing.AllocsPerRun(1000, func() {
		if r, _, _ := h.Lookup(vas[i], addr.Page4K); r != HitL2 {
			t.Fatalf("lookup of page %d = %v, want an L2 hit", i, r)
		}
		i = (i + 1) % len(vas)
	}); n != 0 {
		t.Errorf("L2 hit with L1 refill allocates %v objects per call", n)
	}
}

// TestLookupBatchPAsAllocFree guards the fused entry point the simulator's
// trace loop drives, including a 4K miss that hits at 2M.
func TestLookupBatchPAsAllocFree(t *testing.T) {
	h := NewTableIII()
	var vas [BatchWidth]addr.VirtAddr
	for i := range vas {
		vas[i] = addr.VirtAddr(0x1000000 + i*4096)
		h.Insert(vas[i], addr.Page4K, uint64(i))
	}
	vas[BatchWidth-1] = addr.VirtAddr(0x80000000)
	h.Insert(vas[BatchWidth-1], addr.Page2M, 7)
	var pas [BatchWidth]addr.PhysAddr
	if n := testing.AllocsPerRun(1000, func() {
		got, _, _, _ := h.LookupBatchPAs(vas[:], pas[:])
		if got != BatchWidth {
			t.Fatalf("warm batch resolved %d/%d", got, BatchWidth)
		}
	}); n != 0 {
		t.Errorf("LookupBatchPAs allocates %v objects per call", n)
	}
}
