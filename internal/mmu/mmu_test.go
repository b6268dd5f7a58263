package mmu

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mehpt"
	"repro/internal/phys"
	"repro/internal/radix"
)

func newRadixMMU(t *testing.T) (*MMU, *radix.PageTable, *phys.Allocator) {
	t.Helper()
	mem := phys.NewMemory(1 * addr.GB)
	alloc := phys.NewAllocator(mem, 0)
	pt, err := radix.NewPageTable(alloc)
	if err != nil {
		t.Fatal(err)
	}
	return NewRadix(pt, cache.NewHierarchy(cache.TableIII())), pt, alloc
}

func newHPTMMU(t *testing.T) (*MMU, *mehpt.PageTable, *phys.Allocator) {
	t.Helper()
	mem := phys.NewMemory(1 * addr.GB)
	alloc := phys.NewAllocator(mem, 0)
	cfg := mehpt.DefaultConfig(11)
	cfg.Rand = rand.New(rand.NewSource(1))
	pt, err := mehpt.NewPageTable(alloc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewHPT(pt, cache.NewHierarchy(cache.TableIII())), pt, alloc
}

func TestRadixTranslateFaultThenHit(t *testing.T) {
	m, pt, _ := newRadixMMU(t)
	va := addr.VirtAddr(0x1234_5678)
	r := m.Translate(va)
	if !r.Fault {
		t.Fatal("unmapped address did not fault")
	}
	pt.Map(va.PageNumber(addr.Page4K), addr.Page4K, 77)
	r = m.Translate(va)
	if r.Fault {
		t.Fatal("mapped address faulted")
	}
	wantPA := addr.Translate(va, 77, addr.Page4K)
	if r.PA != wantPA {
		t.Fatalf("PA = %#x, want %#x", r.PA, wantPA)
	}
	walkCycles := r.Cycles
	// The walk inserted the TLB entry: next access is a cheap TLB hit.
	r = m.Translate(va)
	if r.Cycles >= walkCycles {
		t.Errorf("TLB hit (%d cyc) not cheaper than walk (%d cyc)", r.Cycles, walkCycles)
	}
	if r.Cycles != 2 {
		t.Errorf("L1 TLB hit = %d cycles, want 2", r.Cycles)
	}
	st := m.Stats()
	if st.Walks != 2 || st.Faults != 1 || st.L1Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHPTTranslateFaultThenHit(t *testing.T) {
	m, pt, _ := newHPTMMU(t)
	va := addr.VirtAddr(0x7777_0000)
	if r := m.Translate(va); !r.Fault {
		t.Fatal("unmapped address did not fault")
	}
	pt.Map(va.PageNumber(addr.Page4K), addr.Page4K, 99)
	r := m.Translate(va)
	if r.Fault {
		t.Fatal("mapped address faulted")
	}
	if r.PA != addr.Translate(va, 99, addr.Page4K) {
		t.Fatalf("wrong PA %#x", r.PA)
	}
	if r2 := m.Translate(va); r2.Cycles != 2 {
		t.Errorf("TLB hit = %d cycles, want 2", r2.Cycles)
	}
}

// TestWalkLatencyOrdering: the central claim — a cold hashed walk is
// cheaper than a cold radix walk, because the radix walk performs up to
// four dependent memory accesses while the HPT needs one probe (plus a CWT
// fetch at worst).
func TestWalkLatencyOrdering(t *testing.T) {
	rm, rpt, _ := newRadixMMU(t)
	hm, hpt, _ := newHPTMMU(t)
	// Map the same distant pages in both.
	var radixWalk, hptWalk uint64
	for i := 0; i < 64; i++ {
		// Far apart so PWC/CWC/TLB never help: stride 2GB.
		va := addr.VirtAddr(uint64(i) * 2 * addr.GB)
		rpt.Map(va.PageNumber(addr.Page4K), addr.Page4K, addr.PPN(i))
		hpt.Map(va.PageNumber(addr.Page4K), addr.Page4K, addr.PPN(i))
		radixWalk += rm.Translate(va).Cycles
		hptWalk += hm.Translate(va).Cycles
	}
	if hptWalk >= radixWalk {
		t.Errorf("hashed walks (%d cyc) not cheaper than radix walks (%d cyc)",
			hptWalk, radixWalk)
	}
}

// TestRadixPWCShortensWalks: walks within a cached 2MB region cost one
// memory access instead of four.
func TestRadixPWCShortensWalks(t *testing.T) {
	m, pt, _ := newRadixMMU(t)
	base := addr.VirtAddr(0x4000_0000)
	// Map two pages in the same 2MB region, far apart within it so the
	// second is not TLB-co-resident... 2MB region shares the L1 TLB set
	// rarely; just use different pages.
	pt.Map(base.PageNumber(addr.Page4K), addr.Page4K, 1)
	va2 := base + 300*4096
	pt.Map(va2.PageNumber(addr.Page4K), addr.Page4K, 2)
	first := m.Translate(base).Cycles // cold: 4 accesses
	second := m.Translate(va2).Cycles // PMD-PWC hit: 1 access
	if second >= first {
		t.Errorf("PWC did not shorten the walk: %d then %d cycles", first, second)
	}
}

func TestHugePageTranslation(t *testing.T) {
	m, pt, _ := newRadixMMU(t)
	vpn := addr.VPN(3)
	pt.Map(vpn, addr.Page2M, 42)
	va := vpn.Addr(addr.Page2M) + 0x12345
	r := m.Translate(va)
	if r.Fault || r.Size != addr.Page2M {
		t.Fatalf("huge translate: %+v", r)
	}
	if r.PA != addr.Translate(va, 42, addr.Page2M) {
		t.Errorf("PA = %#x", r.PA)
	}
}

func TestInvalidate(t *testing.T) {
	m, pt, _ := newHPTMMU(t)
	va := addr.VirtAddr(0x9999_0000)
	pt.Map(va.PageNumber(addr.Page4K), addr.Page4K, 5)
	m.Translate(va) // fills TLB
	pt.Unmap(va.PageNumber(addr.Page4K), addr.Page4K)
	m.Invalidate(va, addr.Page4K)
	if r := m.Translate(va); !r.Fault {
		t.Error("translation survived unmap+invalidate")
	}
}

func TestStatsCounters(t *testing.T) {
	m, pt, _ := newHPTMMU(t)
	va := addr.VirtAddr(0xABC_0000)
	pt.Map(va.PageNumber(addr.Page4K), addr.Page4K, 1)
	m.Translate(va) // walk
	m.Translate(va) // L1 hit
	st := m.Stats()
	if st.Translations != 2 || st.Walks != 1 || st.L1Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.WalkCycles == 0 {
		t.Error("walk cycles not accumulated")
	}
}

// TestBindFlushesAndRetargets: Bind is a cold start on the new table.
// Rebinding the table an address was just walked in makes it walk again at
// the cold walk's cycle count, because the TLBs and the walk caches were
// flushed (the data cache is replaced too, so only translation caches could
// make the walk cheaper). Binding a second table makes translations resolve
// through it.
func TestBindFlushesAndRetargets(t *testing.T) {
	for _, kind := range []string{"Radix", "HPT"} {
		t.Run(kind, func(t *testing.T) {
			m, first := newMMU(t, kind)
			_, second := newMMU(t, kind)
			va := addr.VirtAddr(0x4000_0000)
			vpn := va.PageNumber(addr.Page4K)
			if _, err := first.Map(vpn, addr.Page4K, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := second.Map(vpn, addr.Page4K, 2); err != nil {
				t.Fatal(err)
			}
			cold := m.Translate(va)
			if cold.Fault {
				t.Fatal("mapped address faulted")
			}

			m.Mem = cache.NewHierarchy(cache.TableIII())
			m.Bind(first)
			walks := m.Stats().Walks
			if r := m.Translate(va); r != cold {
				t.Errorf("after rebinding the same table: %+v, cold walk %+v", r, cold)
			}
			if got := m.Stats().Walks; got != walks+1 {
				t.Errorf("after rebinding the same table: %d walks, want %d", got, walks+1)
			}

			m.Bind(second)
			if r := m.Translate(va); r.Fault || r.PA != addr.Translate(va, 2, addr.Page4K) {
				t.Errorf("after binding a second table: %+v, want PPN 2", r)
			}
		})
	}
}
