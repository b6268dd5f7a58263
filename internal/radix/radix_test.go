package radix

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/phys"
)

func newPT(t *testing.T) (*PageTable, *phys.Memory) {
	t.Helper()
	mem := phys.NewMemory(1 * addr.GB)
	p, err := NewPageTable(phys.NewAllocator(mem, 0))
	if err != nil {
		t.Fatal(err)
	}
	return p, mem
}

func TestMapTranslateUnmap(t *testing.T) {
	p, _ := newPT(t)
	vpn := addr.VPN(0x7f123)
	if _, err := p.Map(vpn, addr.Page4K, 42); err != nil {
		t.Fatal(err)
	}
	tr, ok := p.Translate(vpn.Addr(addr.Page4K) + 0xFF)
	if !ok || tr.PPN != 42 || tr.Size != addr.Page4K {
		t.Fatalf("Translate = %+v,%v", tr, ok)
	}
	if _, ok := p.Unmap(vpn, addr.Page4K); !ok {
		t.Fatal("Unmap failed")
	}
	if _, ok := p.Translate(vpn.Addr(addr.Page4K)); ok {
		t.Fatal("translation survived unmap")
	}
}

func TestFourKBMappingUsesFourNodes(t *testing.T) {
	p, _ := newPT(t)
	before := p.stats.Nodes
	if before != 1 {
		t.Fatalf("fresh tree has %d nodes, want 1 (root)", before)
	}
	p.Map(addr.VPN(0x11111), addr.Page4K, 1)
	// One PUD + one PMD + one PTE node beyond the root.
	if got := p.stats.Nodes; got != 4 {
		t.Errorf("nodes after first 4KB map = %d, want 4", got)
	}
	// A second mapping in the same 2MB region adds nothing.
	p.Map(addr.VPN(0x11112), addr.Page4K, 2)
	if got := p.stats.Nodes; got != 4 {
		t.Errorf("nodes after neighbour map = %d, want 4", got)
	}
}

func TestHugePages(t *testing.T) {
	p, _ := newPT(t)
	if _, err := p.Map(addr.VPN(5), addr.Page2M, 77); err != nil {
		t.Fatal(err)
	}
	// A 2MB leaf sits at the PMD: root + PUD + PMD = 3 nodes.
	if got := p.stats.Nodes; got != 3 {
		t.Errorf("nodes for 2MB map = %d, want 3", got)
	}
	va := addr.VPN(5).Addr(addr.Page2M) + 0x12345
	tr, ok := p.Translate(va)
	if !ok || tr.Size != addr.Page2M || tr.PPN != 77 {
		t.Fatalf("Translate = %+v,%v", tr, ok)
	}
	if _, err := p.Map(addr.VPN(7), addr.Page1G, 88); err != nil {
		t.Fatal(err)
	}
	tr, ok = p.Translate(addr.VPN(7).Addr(addr.Page1G) + 999)
	if !ok || tr.Size != addr.Page1G || tr.PPN != 88 {
		t.Fatalf("1GB Translate = %+v,%v", tr, ok)
	}
	// Mapping a 4KB page under an existing huge page must fail loudly.
	sub := addr.VirtAddr(addr.VPN(5).Addr(addr.Page2M)).PageNumber(addr.Page4K)
	if _, err := p.Map(sub, addr.Page4K, 1); err == nil {
		t.Error("4KB map under a 2MB leaf succeeded")
	}
}

func TestWalkAddrs(t *testing.T) {
	p, _ := newPT(t)
	vpn := addr.VPN(0x33333)
	p.Map(vpn, addr.Page4K, 9)
	va := vpn.Addr(addr.Page4K)
	pas, tr, ok := p.AppendWalkAddrs(nil, va)
	if !ok || tr.PPN != 9 {
		t.Fatalf("walk failed: %+v,%v", tr, ok)
	}
	if len(pas) != 4 {
		t.Fatalf("walk touched %d entries, want 4", len(pas))
	}
	seen := map[addr.PhysAddr]bool{}
	for _, pa := range pas {
		if seen[pa] {
			t.Error("duplicate walk address")
		}
		seen[pa] = true
	}
	// Huge-page walk stops at the PMD (3 accesses).
	p.Map(addr.VPN(9), addr.Page2M, 10)
	pas, _, ok = p.AppendWalkAddrs(nil, addr.VPN(9).Addr(addr.Page2M))
	if !ok || len(pas) != 3 {
		t.Fatalf("2MB walk = %d accesses,%v; want 3,true", len(pas), ok)
	}
	// Unmapped address: the walk aborts early.
	pas, _, ok = p.AppendWalkAddrs(nil, 0xDEAD_BEEF_000)
	if ok {
		t.Error("walk of unmapped address succeeded")
	}
	if len(pas) == 0 {
		t.Error("aborted walk should still touch at least the root entry")
	}
}

// TestNodeFrameAt: each level of a complete walk reads its entry from a
// distinct node frame (the frames the MMU's page-walk caches key on), and
// a walk of an unmapped address stops above the leaf level.
func TestNodeFrameAt(t *testing.T) {
	p, _ := newPT(t)
	vpn := addr.VPN(0x44444)
	p.Map(vpn, addr.Page4K, 3)
	pas, _, ok := p.AppendWalkAddrs(nil, vpn.Addr(addr.Page4K))
	if !ok || len(pas) != Levels {
		t.Fatalf("walk of a mapped page: %d levels, ok %v", len(pas), ok)
	}
	frames := map[addr.PPN]bool{}
	for i, pa := range pas {
		f := pa.PageNumber(addr.Page4K)
		if frames[f] {
			t.Errorf("level %d reuses a node frame", Levels-1-i)
		}
		frames[f] = true
	}
	if pas, _, ok := p.AppendWalkAddrs(nil, 0xBAD_000_000); ok || len(pas) == Levels {
		t.Errorf("walk of an unmapped address read %d levels, ok %v", len(pas), ok)
	}
}

func TestModelEquivalence(t *testing.T) {
	p, _ := newPT(t)
	model := make(map[addr.VPN]addr.PPN)
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20000; step++ {
		vpn := addr.VPN(rng.Uint64() & 0xFFFFF)
		switch rng.Intn(3) {
		case 0, 1:
			ppn := addr.PPN(rng.Uint64() & 0xFFFFF)
			if _, err := p.Map(vpn, addr.Page4K, ppn); err != nil {
				t.Fatal(err)
			}
			model[vpn] = ppn
		case 2:
			_, gotOK := p.Unmap(vpn, addr.Page4K)
			if _, wantOK := model[vpn]; gotOK != wantOK {
				t.Fatalf("Unmap(%d) = %v want %v", vpn, gotOK, wantOK)
			}
			delete(model, vpn)
		}
	}
	for vpn, want := range model {
		tr, ok := p.Translate(vpn.Addr(addr.Page4K))
		if !ok || tr.Size != addr.Page4K || tr.PPN != want {
			t.Fatalf("Translate(%d) = %+v,%v want %d", vpn, tr, ok, want)
		}
	}
}

func TestContiguityIsAlwaysOnePage(t *testing.T) {
	p, _ := newPT(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50000; i++ {
		p.Map(addr.VPN(rng.Uint64()&0xFFFFFF), addr.Page4K, addr.PPN(i))
	}
	if got := p.MaxContiguousAlloc(); got != 4*addr.KB {
		t.Errorf("MaxContiguousAlloc = %d, want 4KB", got)
	}
	if p.FootprintBytes() == 0 {
		t.Error("footprint should be nonzero")
	}
}

func TestFreeReturnsMemory(t *testing.T) {
	mem := phys.NewMemory(1 * addr.GB)
	p, err := NewPageTable(phys.NewAllocator(mem, 0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		p.Map(addr.VPN(rng.Uint64()&0xFFFFF), addr.Page4K, addr.PPN(i))
	}
	p.Map(addr.VPN(100), addr.Page2M, 5)
	p.Map(addr.VPN(3), addr.Page1G, 6)
	p.Free()
	if mem.FreeBytes() != mem.TotalBytes() {
		t.Errorf("leak: %d of %d free", mem.FreeBytes(), mem.TotalBytes())
	}
}

func TestFiveLevelTree(t *testing.T) {
	mem := phys.NewMemory(1 * addr.GB)
	p, err := NewPageTableLevels(phys.NewAllocator(mem, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.levels != 5 {
		t.Fatalf("depth = %d", p.levels)
	}
	vpn := addr.VPN(0x54321)
	if _, err := p.Map(vpn, addr.Page4K, 11); err != nil {
		t.Fatal(err)
	}
	// The first 4KB mapping needs root + 4 intermediate/leaf nodes.
	if got := p.stats.Nodes; got != 5 {
		t.Errorf("nodes = %d, want 5", got)
	}
	tr, ok := p.Translate(vpn.Addr(addr.Page4K))
	if !ok || tr.PPN != 11 {
		t.Fatalf("Translate = %+v,%v", tr, ok)
	}
	// A walk touches 5 entries.
	pas, _, ok := p.AppendWalkAddrs(nil, vpn.Addr(addr.Page4K))
	if !ok || len(pas) != 5 {
		t.Fatalf("walk = %d accesses,%v; want 5,true", len(pas), ok)
	}
	p.Free()
	if mem.FreeBytes() != mem.TotalBytes() {
		t.Error("5-level Free leaked")
	}
}

func TestInvalidDepthRejected(t *testing.T) {
	mem := phys.NewMemory(16 * addr.MB)
	if _, err := NewPageTableLevels(phys.NewAllocator(mem, 0), 3); err == nil {
		t.Error("3-level tree accepted")
	}
	if _, err := NewPageTableLevels(phys.NewAllocator(mem, 0), 6); err == nil {
		t.Error("6-level tree accepted")
	}
}
