package nested

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mehpt"
	"repro/internal/osmodel"
	"repro/internal/phys"
	"repro/internal/radix"
)

// buildNested wires a guest and host of the given kinds with n guest pages
// mapped at stride pages apart, and identity-style host mappings covering
// all guest-physical memory the guest uses.
func buildNested(t *testing.T, hashed bool, pages int, stridePages uint64) (*MMU, []addr.VirtAddr) {
	t.Helper()
	hostMem := phys.NewMemory(4 * addr.GB)
	hostAlloc := phys.NewAllocator(hostMem, 0)
	guestMem := phys.NewMemory(2 * addr.GB)
	guestAlloc := phys.NewAllocator(guestMem, 0)

	mem := cache.NewHierarchy(cache.TableIII())
	var guest, host osmodel.PageTable

	if hashed {
		gcfg := mehpt.DefaultConfig(1)
		gcfg.Rand = rand.New(rand.NewSource(1))
		gpt, err := mehpt.NewPageTable(guestAlloc, gcfg)
		if err != nil {
			t.Fatal(err)
		}
		hcfg := mehpt.DefaultConfig(2)
		hcfg.Rand = rand.New(rand.NewSource(2))
		hpt, err := mehpt.NewPageTable(hostAlloc, hcfg)
		if err != nil {
			t.Fatal(err)
		}
		guest, host = gpt, hpt
	} else {
		gpt, err := radix.NewPageTable(guestAlloc)
		if err != nil {
			t.Fatal(err)
		}
		hpt, err := radix.NewPageTable(hostAlloc)
		if err != nil {
			t.Fatal(err)
		}
		guest, host = gpt, hpt
	}

	// Host: map all 2GB of guest-physical space 1:1-ish so every gPA
	// (data and guest page-table frames) resolves.
	for g := addr.VPN(0); g < 1<<19; g += 1 {
		if _, err := host.Map(g, addr.Page4K, addr.PPN(g)+0x100000); err != nil {
			t.Fatal(err)
		}
	}

	var vas []addr.VirtAddr
	base := addr.VirtAddr(0x7000_0000_0000)
	for i := 0; i < pages; i++ {
		va := base + addr.VirtAddr(uint64(i)*stridePages*4096)
		if _, err := guest.Map(va.PageNumber(addr.Page4K), addr.Page4K, addr.PPN(1000+i)); err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}
	return NewMMU(guest, host, mem), vas
}

func TestNestedTranslateBasics(t *testing.T) {
	m, vas := buildNested(t, false, 16, 1)
	hpa, cycles, ok := m.Translate(vas[0])
	if !ok {
		t.Fatal("nested translation failed")
	}
	if cycles == 0 || hpa == 0 {
		t.Errorf("hpa=%#x cycles=%d", hpa, cycles)
	}
	// Second access: nested TLB hit, far cheaper.
	_, cycles2, ok := m.Translate(vas[0])
	if !ok || cycles2 >= cycles {
		t.Errorf("nested TLB hit %d not cheaper than walk %d", cycles2, cycles)
	}
	st := m.Stats()
	if st.Walks != 1 || st.TLBHits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestNestedAccessCounts: the paper-cited blow-up — a nested radix walk
// performs up to (L+1)² − 1 = 24 accesses, a nested hashed walk a handful.
func TestNestedAccessCounts(t *testing.T) {
	rm, rvas := buildNested(t, false, 64, 2048) // far apart: no PWC help
	hm, hvas := buildNested(t, true, 64, 2048)
	for i := range rvas {
		rm.Translate(rvas[i])
		hm.Translate(hvas[i])
	}
	rAvg := float64(rm.Stats().WalkAccesses) / float64(rm.Stats().Walks)
	hAvg := float64(hm.Stats().WalkAccesses) / float64(hm.Stats().Walks)
	if rAvg < 15 || rAvg > 25 {
		t.Errorf("nested radix walk = %.1f accesses, want ≈24 (2D 4-level)", rAvg)
	}
	if hAvg > 5 {
		t.Errorf("nested hashed walk = %.1f accesses, want ≤5", hAvg)
	}
	if hAvg >= rAvg/3 {
		t.Errorf("nested hashed (%.1f) not ≪ nested radix (%.1f)", hAvg, rAvg)
	}
}

func TestNestedWalkCyclesOrdering(t *testing.T) {
	rm, rvas := buildNested(t, false, 32, 2048)
	hm, hvas := buildNested(t, true, 32, 2048)
	var rc, hc uint64
	for i := range rvas {
		_, c, ok := rm.Translate(rvas[i])
		if !ok {
			t.Fatal("radix nested failed")
		}
		rc += c
		_, c, ok = hm.Translate(hvas[i])
		if !ok {
			t.Fatal("hashed nested failed")
		}
		hc += c
	}
	if hc >= rc {
		t.Errorf("nested hashed walks (%d cyc) not cheaper than nested radix (%d cyc)", hc, rc)
	}
}

func TestNestedFault(t *testing.T) {
	m, _ := buildNested(t, false, 4, 1)
	if _, _, ok := m.Translate(0xDEAD_0000_0000); ok {
		t.Error("unmapped guest VA translated")
	}
	if m.Stats().Faults == 0 {
		t.Error("fault not counted")
	}
}
