package l2p

import (
	"testing"

	"repro/internal/addr"
)

func TestCapacityConstants(t *testing.T) {
	tb := New(3)
	if got := tb.TotalEntries(); got != 288 {
		t.Errorf("TotalEntries = %d, want 288", got)
	}
	// 288 entries × 33 bits = 1.16KB (paper Section V-B).
	if got := tb.SizeBytes(); got < 1180 || got > 1195 {
		t.Errorf("SizeBytes = %v, want ≈1188 (1.16KB)", got)
	}
}

func TestNativeLimits(t *testing.T) {
	tb := New(3)
	for i := 0; i < EntriesPerSubtable; i++ {
		if !tb.Acquire(0, addr.Page4K) {
			t.Fatalf("Acquire #%d failed within native capacity", i)
		}
	}
	if tb.Used(0, addr.Page4K) != 32 {
		t.Errorf("Used = %d, want 32", tb.Used(0, addr.Page4K))
	}
	// Ways are independent.
	if tb.Used(1, addr.Page4K) != 0 {
		t.Error("way 1 affected by way 0 acquisitions")
	}
}

// TestStealing reproduces Figure 6b: with the 1GB subtable unused, the 4KB
// subtable grows to 64 entries.
func TestStealing(t *testing.T) {
	tb := New(3)
	for i := 0; i < StolenMax; i++ {
		if !tb.Acquire(0, addr.Page4K) {
			t.Fatalf("Acquire #%d failed; stealing should allow 64", i)
		}
	}
	if tb.Acquire(0, addr.Page4K) {
		t.Error("65th acquire succeeded; cap is 64")
	}
	if tb.Used(0, addr.Page4K) != 64 {
		t.Errorf("Used = %d, want 64", tb.Used(0, addr.Page4K))
	}
}

// TestStealBlockedByOccupied1GB: the 1GB region cannot be stolen while the
// 1GB subtable has entries.
func TestStealBlockedByOccupied1GB(t *testing.T) {
	tb := New(3)
	if !tb.Acquire(0, addr.Page1G) {
		t.Fatal("1GB acquire failed")
	}
	for i := 0; i < EntriesPerSubtable; i++ {
		if !tb.Acquire(0, addr.Page4K) {
			t.Fatalf("4KB acquire #%d failed within native region", i)
		}
	}
	if tb.Acquire(0, addr.Page4K) {
		t.Error("4KB stole the 1GB region while 1GB entries exist")
	}
}

// Test1GBBorrowsAfterSteal reproduces Figure 6c: after 4KB steals the 1GB
// region, a 1GB entry borrows from the 2MB subtable's free end.
func Test1GBBorrowsAfterSteal(t *testing.T) {
	tb := New(3)
	for i := 0; i < 40; i++ { // past 32 => steal happens
		if !tb.Acquire(0, addr.Page4K) {
			t.Fatalf("4KB acquire #%d failed", i)
		}
	}
	if !tb.Acquire(0, addr.Page1G) {
		t.Fatal("1GB could not borrow from the 2MB subtable")
	}
	// Borrowed 1GB entries shrink the 2MB headroom.
	if lim := tb.Limit(0, addr.Page2M); lim != EntriesPerSubtable-1 {
		t.Errorf("2MB limit after borrow = %d, want %d", lim, EntriesPerSubtable-1)
	}
	got2M := 0
	for tb.Acquire(0, addr.Page2M) {
		got2M++
	}
	if got2M != EntriesPerSubtable-1 {
		t.Errorf("2MB acquired %d entries, want %d", got2M, EntriesPerSubtable-1)
	}
}

// Test1GBBorrowCapacity: with 4KB stealing and 2MB empty, 1GB can borrow up
// to the full 2MB region.
func Test1GBBorrowCapacity(t *testing.T) {
	tb := New(3)
	for i := 0; i < 33; i++ {
		tb.Acquire(0, addr.Page4K)
	}
	n := 0
	for tb.Acquire(0, addr.Page1G) {
		n++
	}
	if n != EntriesPerSubtable {
		t.Errorf("1GB borrowed %d entries, want %d", n, EntriesPerSubtable)
	}
	// Way total never exceeds 96.
	total := tb.Used(0, addr.Page4K) + tb.Used(0, addr.Page2M) + tb.Used(0, addr.Page1G)
	if total > 96 {
		t.Errorf("way total %d exceeds 96 slots", total)
	}
}

func TestReleaseReturnsStolenRegion(t *testing.T) {
	tb := New(3)
	for i := 0; i < 64; i++ {
		tb.Acquire(0, addr.Page4K)
	}
	// Chunk-size transition: 64 chunks collapse to 1.
	tb.Release(0, addr.Page4K, 63)
	if tb.Used(0, addr.Page4K) != 1 {
		t.Fatalf("Used = %d, want 1", tb.Used(0, addr.Page4K))
	}
	// The 1GB region must be available again.
	for i := 0; i < EntriesPerSubtable; i++ {
		if !tb.Acquire(0, addr.Page1G) {
			t.Fatalf("1GB acquire #%d failed after steal release", i)
		}
	}
}

func TestReleasePanicsOnUnderflow(t *testing.T) {
	tb := New(3)
	tb.Acquire(0, addr.Page4K)
	defer func() {
		if recover() == nil {
			t.Error("Release underflow did not panic")
		}
	}()
	tb.Release(0, addr.Page4K, 2)
}

func TestPeakTracking(t *testing.T) {
	tb := New(3)
	for w := 0; w < 3; w++ {
		for i := 0; i < 10; i++ {
			tb.Acquire(w, addr.Page4K)
		}
	}
	if tb.TotalUsed() != 30 || tb.PeakUsed() != 30 {
		t.Errorf("TotalUsed=%d PeakUsed=%d, want 30/30", tb.TotalUsed(), tb.PeakUsed())
	}
	tb.Release(0, addr.Page4K, 10)
	if tb.TotalUsed() != 20 {
		t.Errorf("TotalUsed=%d, want 20", tb.TotalUsed())
	}
	if tb.PeakUsed() != 30 {
		t.Errorf("PeakUsed=%d, want 30 (monotone)", tb.PeakUsed())
	}
	if tb.SaveRestoreEntries() != 20 {
		t.Errorf("SaveRestoreEntries=%d, want 20", tb.SaveRestoreEntries())
	}
	// A checkpoint carries the peak: a restored table reports it live.
	var r Table
	r.Restore(tb.State())
	if r.TotalUsed() != 20 || r.PeakUsed() != 30 {
		t.Errorf("restored TotalUsed=%d PeakUsed=%d, want 20/30", r.TotalUsed(), r.PeakUsed())
	}
}

// TestGUPSScenario reproduces the paper's Section VII-D arithmetic: a 4KB
// HPT needing 192 entries fits exactly (64 per way × 3 ways), and 193 does
// not.
func TestGUPSScenario(t *testing.T) {
	tb := New(3)
	granted := 0
	for w := 0; w < 3; w++ {
		for tb.Acquire(w, addr.Page4K) {
			granted++
		}
	}
	if granted != 192 {
		t.Errorf("4KB capacity across ways = %d, want 192", granted)
	}
}
