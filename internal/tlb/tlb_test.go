package tlb

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// hit is the bool-only view of Lookup most structural tests want.
func hit(tb *TLB, vpn addr.VPN) bool {
	_, ok := tb.Lookup(vpn)
	return ok
}

func TestLookupInsert(t *testing.T) {
	tb := New(Config{Entries: 16, Ways: 4, Latency: 2})
	if hit(tb, 100) {
		t.Fatal("cold lookup hit")
	}
	tb.Insert(100, 777)
	pay, ok := tb.Lookup(100)
	if !ok {
		t.Fatal("lookup after insert missed")
	}
	if pay != 777 {
		t.Errorf("payload = %d, want 777", pay)
	}
}

func TestDuplicateInsertKeepsOneCopy(t *testing.T) {
	tb := New(Config{Entries: 4, Ways: 4, Latency: 1})
	tb.Insert(1, 11)
	tb.Insert(1, 12)
	tb.Insert(2, 22)
	tb.Insert(3, 33)
	tb.Insert(4, 44) // would evict if 1 were duplicated
	if !hit(tb, 2) || !hit(tb, 3) || !hit(tb, 4) {
		t.Error("entries lost; duplicate insert consumed a way")
	}
	// The duplicate insert refreshed the payload.
	if pay, ok := tb.Lookup(1); !ok || pay != 12 {
		t.Errorf("re-insert payload = %d, %v; want 12, true", pay, ok)
	}
}

func TestLRUWithinSet(t *testing.T) {
	tb := New(Config{Entries: 4, Ways: 2, Latency: 1}) // 2 sets × 2 ways
	// VPNs 0,2,4 map to set 0.
	tb.Insert(0, 100)
	tb.Insert(2, 102)
	hit(tb, 0)        // 0 MRU
	tb.Insert(4, 104) // evicts 2
	if pay, ok := tb.Lookup(0); !ok || pay != 100 {
		t.Errorf("MRU entry evicted or payload lost: %d, %v", pay, ok)
	}
	if hit(tb, 2) {
		t.Error("LRU entry survived")
	}
}

// TestPayloadTracksLRUShifts drives enough hits and evictions through one
// set that any payload/tag desynchronization in the copy-shifts shows up.
func TestPayloadTracksLRUShifts(t *testing.T) {
	tb := New(Config{Entries: 4, Ways: 4, Latency: 1})
	for v := addr.VPN(0); v < 4; v++ {
		tb.Insert(v, uint64(v)*10+5)
	}
	order := []addr.VPN{2, 0, 3, 1, 1, 3, 0, 2, 2, 2, 0}
	for _, v := range order {
		if pay, ok := tb.Lookup(v); !ok || pay != uint64(v)*10+5 {
			t.Fatalf("vpn %d: payload %d, hit %v; want %d", v, pay, ok, uint64(v)*10+5)
		}
	}
	tb.Insert(9, 95) // evicts the LRU (vpn 1 after the order above)
	if hit(tb, 1) {
		t.Error("LRU entry survived eviction")
	}
	for _, v := range []addr.VPN{0, 2, 3, 9} {
		want := uint64(v)*10 + 5
		if pay, ok := tb.Lookup(v); !ok || pay != want {
			t.Fatalf("after eviction vpn %d: payload %d, hit %v; want %d", v, pay, ok, want)
		}
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	tb := New(Config{Entries: 8, Ways: 4, Latency: 1})
	tb.Insert(5, 55)
	tb.Invalidate(5)
	if hit(tb, 5) {
		t.Error("invalidated entry still present")
	}
	tb.Insert(6, 66)
	tb.Insert(7, 77)
	tb.Flush()
	if hit(tb, 6) || hit(tb, 7) {
		t.Error("entries survived flush")
	}
	// A new resident of a slot vacated by Invalidate/Flush must not see the
	// old payload.
	tb.Insert(6, 68)
	if pay, ok := tb.Lookup(6); !ok || pay != 68 {
		t.Errorf("payload after flush+reinsert = %d, %v; want 68", pay, ok)
	}
}

func TestFullyAssociative(t *testing.T) {
	tb := New(Config{Entries: 4, Ways: 0, Latency: 1})
	for v := addr.VPN(0); v < 4; v++ {
		tb.Insert(v, uint64(v))
	}
	for v := addr.VPN(0); v < 4; v++ {
		if !hit(tb, v) {
			t.Errorf("entry %d missing in fully-associative TLB", v)
		}
	}
	tb.Insert(99, 99) // evicts LRU (0 after the lookups refreshed order 0..3 → 0 is LRU? After lookups, 3 is MRU, 0 LRU)
	if hit(tb, 0) {
		t.Error("LRU entry survived in full TLB")
	}
}

// TestSetBaseMaskMatchesModulo pins setOf — the power-of-two mask, the
// multiply-based reduction and its % fallback above the exact bound —
// against the modulo it replaces: the Table III geometries, then every set
// count from 1 to 1024 at fixed edge VPNs (each side of the reduction's
// bound among them) and 100k random VPNs of random width.
func TestSetBaseMaskMatchesModulo(t *testing.T) {
	check := func(tb *TLB, vpn addr.VPN) {
		t.Helper()
		if got, want := tb.setOf(vpn), uint64(vpn)%tb.sets; got != want {
			t.Fatalf("%d sets, vpn %#x: setOf %d, want %d", tb.sets, uint64(vpn), got, want)
		}
	}
	for _, cfg := range []Config{
		{Entries: 64, Ways: 4, Latency: 2},    // 16 sets: masked
		{Entries: 1024, Ways: 12, Latency: 2}, // 85 sets: multiply
		{Entries: 4, Ways: 0, Latency: 2},     // 1 set
	} {
		tb := New(cfg)
		for _, vpn := range []addr.VPN{0, 1, 84, 85, 86, 1 << 20, 0xDEADBEEF} {
			check(tb, vpn)
		}
	}
	tlbs := make([]*TLB, 1024)
	for sets := 1; sets <= len(tlbs); sets++ {
		tb := New(Config{Entries: sets, Ways: 1})
		tlbs[sets-1] = tb
		bound := addr.VPN(1) << (64 - bits.Len64(uint64(sets)))
		for _, vpn := range []addr.VPN{0, 1, 1<<36 - 1, bound - 1, bound, bound + 1, ^addr.VPN(0)} {
			check(tb, vpn)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		check(tlbs[rng.Intn(len(tlbs))], addr.VPN(rng.Uint64()>>rng.Intn(64)))
	}
}

func TestHierarchyL2Refill(t *testing.T) {
	h := NewTableIII()
	va := addr.VirtAddr(0x123456789000)
	if r, _, _ := h.Lookup(va, addr.Page4K); r != MissAll {
		t.Fatal("cold lookup hit")
	}
	h.Insert(va, addr.Page4K, 321)
	if r, pay, lat := h.Lookup(va, addr.Page4K); r != HitL1 || lat != 2 || pay != 321 {
		t.Fatalf("after insert: %v, pay %d, lat %d", r, pay, lat)
	}
	// Evict from L1 (64e/4w, 16 sets): 4 conflicting VPNs at stride 16.
	base := va.PageNumber(addr.Page4K)
	for i := 1; i <= 4; i++ {
		h.Insert((base + addr.VPN(16*i)).Addr(addr.Page4K), addr.Page4K, uint64(i))
	}
	r, pay, lat := h.Lookup(va, addr.Page4K)
	if r != HitL2 {
		t.Fatalf("expected L2 hit, got %v", r)
	}
	if lat != 14 {
		t.Errorf("L2 hit latency = %d, want 14 (2+12)", lat)
	}
	if pay != 321 {
		t.Errorf("L2 hit payload = %d, want 321", pay)
	}
	// The L2 hit refilled L1, payload included.
	if r, pay, _ := h.Lookup(va, addr.Page4K); r != HitL1 || pay != 321 {
		t.Errorf("L1 not refilled after L2 hit: %v, pay %d", r, pay)
	}
}

func TestHierarchyPerSizeIsolation(t *testing.T) {
	h := NewTableIII()
	va := addr.VirtAddr(0x40000000)
	h.Insert(va, addr.Page2M, 7)
	if r, _, _ := h.Lookup(va, addr.Page4K); r != MissAll {
		t.Error("2MB insert visible to 4KB lookup")
	}
	if r, _, _ := h.Lookup(va, addr.Page2M); r != HitL1 {
		t.Error("2MB insert not visible to 2MB lookup")
	}
	h.Invalidate(va, addr.Page2M)
	if r, _, _ := h.Lookup(va, addr.Page2M); r != MissAll {
		t.Error("invalidate did not remove 2MB entry")
	}
}
