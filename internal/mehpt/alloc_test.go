package mehpt

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/pt"
)

// TestLookupAllocFree guards the page-walk hot path: once the table is
// populated and its resizes drained, Table.Lookup, PageTable.Translate, and the fused
// PageTable.Walk must never allocate — the Mixer probe, the flat ways, and
// the stash scan are all in-place reads.
func TestLookupAllocFree(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	const pages = 512
	for i := 0; i < pages; i++ {
		if _, err := p.Map(addr.VPN(i), addr.Page4K, addr.PPN(1000+i)); err != nil {
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
		if _, ok := tb.Lookup(pt.ClusterKey(addr.VPN(i))); !ok {
			t.Fatal("settled lookup missed")
		}
	}); n != 0 {
		t.Errorf("Table.Lookup allocates %v objects per call", n)
	}

	if n := testing.AllocsPerRun(1000, func() {
		i = (i + 1) % pages
		va := addr.VPN(i).Addr(addr.Page4K)
		if _, ok := p.Translate(va); !ok {
			t.Fatal("Translate missed")
		}
		if _, _, ok := p.Walk(va); !ok {
			t.Fatal("Walk missed")
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
}
