package mehpt

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/pt"
)

// TestLookupAllocFree guards the page-walk hot path: once the table is
// populated and its resizes drained, Table.Lookup, PageTable.Translate, and the fused
// PageTable.Walk must never allocate — the Mixer probe, the flat ways, and
// the stash scan are all in-place reads. The dense half maps consecutive
// pages, so every cluster is in the slab; the sparse half maps every 8th
// page, so every cluster holds one page inline in its way slot.
func TestLookupAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stride uint64
	}{{"dense", 1}, {"sparse", pt.ClusterSpan}} {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := newPT(t, 1*addr.GB)
			const pages = 512
			vpn := func(i uint64) addr.VPN { return addr.VPN(i * tc.stride) }
			for i := uint64(0); i < pages; i++ {
				if _, err := p.Map(vpn(i), addr.Page4K, addr.PPN(1000+i)); err != nil {
					t.Fatal(err)
				}
			}
			tb := p.Table(addr.Page4K)
			if err := tb.DrainResizes(); err != nil {
				t.Fatal(err)
			}

			var i uint64
			if n := testing.AllocsPerRun(1000, func() {
				i = (i + 1) % pages
				if _, ok := tb.Lookup(pt.ClusterKey(vpn(i))); !ok {
					t.Fatal("settled lookup missed")
				}
			}); n != 0 {
				t.Errorf("Table.Lookup allocates %v objects per call", n)
			}

			if n := testing.AllocsPerRun(1000, func() {
				i = (i + 1) % pages
				va := vpn(i).Addr(addr.Page4K)
				if tr, ok := p.Translate(va); !ok || tr.PPN != addr.PPN(1000+i) {
					t.Fatalf("Translate = %+v,%v", tr, ok)
				}
				if tr, _, ok := p.Walk(va); !ok || tr.PPN != addr.PPN(1000+i) {
					t.Fatalf("Walk = %+v,%v", tr, ok)
				}
			}); n != 0 {
				t.Errorf("Translate+Walk allocates %v objects per call", n)
			}

			// Misses take the same probe loop through every size table.
			if n := testing.AllocsPerRun(1000, func() {
				if _, ok := p.Translate(addr.VPN(1 << 30).Addr(addr.Page4K)); ok {
					t.Fatal("phantom translation")
				}
			}); n != 0 {
				t.Errorf("missing Translate allocates %v objects per call", n)
			}
		})
	}
}
