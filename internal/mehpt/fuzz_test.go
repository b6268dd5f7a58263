package mehpt

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/phys"
)

// vpnMask bounds a raw fuzz value to VPNs whose virtual addresses fit the
// canonical 48-bit user space at the given page size.
func vpnMask(s addr.PageSize) uint64 { return (uint64(1) << (47 - s.Shift())) - 1 }

// FuzzTranslateRoundTrip: for arbitrary (VPN, page size, PPN) inputs, Map
// followed by Translate must return exactly the installed translation at
// every offset inside the page, lookups of unmapped addresses must miss
// without panicking, and Unmap must make the translation disappear.
func FuzzTranslateRoundTrip(f *testing.F) {
	f.Add(uint64(0), byte(0), uint64(1), uint64(0))
	f.Add(uint64(0x5800_0000_0), byte(0), uint64(0xABCDE), uint64(4095))
	f.Add(uint64(0x1234), byte(1), uint64(7), uint64(1<<20))
	f.Add(uint64(42), byte(2), uint64(1)<<35, uint64(12345))
	f.Add(uint64(77), byte(0), uint64(1)<<48-2, uint64(9)) // the largest PPN a cluster slot holds
	f.Add(^uint64(0), byte(255), ^uint64(0), ^uint64(0))

	f.Fuzz(func(t *testing.T, vpnRaw uint64, sizeSel byte, ppnRaw, offRaw uint64) {
		sizes := addr.Sizes()
		size := sizes[int(sizeSel)%len(sizes)]
		vpn := addr.VPN(vpnRaw & vpnMask(size))
		ppn := addr.PPN(ppnRaw)

		alloc := phys.NewAllocator(phys.NewMemory(256*addr.MB), 0)
		cfg := DefaultConfig(uint64(vpnRaw) ^ uint64(sizeSel))
		cfg.Rand = rand.New(rand.NewSource(int64(ppnRaw)))
		p, err := NewPageTable(alloc, cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Unmapped state: no lookup may panic or fabricate a translation.
		if _, ok := p.Translate(vpn.Addr(size)); ok {
			t.Fatal("empty table produced a translation")
		}
		if _, ok := p.Unmap(vpn, size); ok {
			t.Fatal("empty table unmapped something")
		}

		if _, err := p.Map(vpn, size, ppn); err != nil {
			// Allocation failure is a legal outcome, not a round-trip bug.
			t.Skipf("map: %v", err)
		}
		va := vpn.Addr(size) + addr.VirtAddr(offRaw%size.Bytes())
		tr, ok := p.Translate(va)
		if !ok {
			t.Fatalf("mapped %v page at vpn %#x not translatable", size, uint64(vpn))
		}
		if tr.PPN != ppn || tr.Size != size {
			t.Fatalf("translate(%#x) = {ppn %#x, %v}, want {ppn %#x, %v}",
				uint64(va), uint64(tr.PPN), tr.Size, uint64(ppn), size)
		}
		if got, ok := p.TranslateSize(vpn, size); !ok || got != ppn {
			t.Fatalf("TranslateSize = (%#x, %v), want (%#x, true)", uint64(got), ok, uint64(ppn))
		}

		// A neighbouring VPN (same cluster, different sub-slot) must miss.
		if other := vpn ^ 1; other != vpn {
			if _, ok := p.TranslateSize(other, size); ok {
				t.Fatalf("unmapped sibling vpn %#x translated", uint64(other))
			}
		}

		// Unmap must remove exactly the installed translation.
		if _, ok := p.Unmap(vpn, size); !ok {
			t.Fatal("unmap of a live translation reported missing")
		}
		if _, ok := p.TranslateSize(vpn, size); ok {
			t.Fatal("translation survived unmap")
		}
	})
}
