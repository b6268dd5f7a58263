package radix

import (
	"testing"

	"repro/internal/addr"
)

// TestTranslateAllocFree guards the radix walk's hot path: once the tree is
// built, Translate of a 4KB page, of a 2MB page and of an unmapped address
// is a descent through node words and allocates nothing.
func TestTranslateAllocFree(t *testing.T) {
	p, _ := newPT(t)
	const pages = 512
	for i := 0; i < pages; i++ {
		if _, err := p.Map(addr.VPN(i*7), addr.Page4K, addr.PPN(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	const huge = addr.VPN(0x4321)
	if _, err := p.Map(huge, addr.Page2M, 0x7000); err != nil {
		t.Fatal(err)
	}
	var i uint64
	if n := testing.AllocsPerRun(1000, func() {
		i = (i + 1) % pages
		if _, ok := p.Translate(addr.VPN(i * 7).Addr(addr.Page4K)); !ok {
			t.Fatal("Translate of a 4KB page missed")
		}
		if tr, ok := p.Translate(huge.Addr(addr.Page2M) + addr.VirtAddr(i*4096)); !ok || tr.Size != addr.Page2M {
			t.Fatalf("Translate of the 2MB page = %+v,%v", tr, ok)
		}
		if _, ok := p.Translate(addr.VirtAddr(1) << 46); ok {
			t.Fatal("phantom translation")
		}
	}); n != 0 {
		t.Errorf("Translate allocates %v objects per call", n)
	}
}
