package ecpt

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/cuckoo"
	"repro/internal/phys"
	"repro/internal/pt"
)

func newPT(t *testing.T, memBytes uint64) (*PageTable, *phys.Memory) {
	t.Helper()
	mem := phys.NewMemory(memBytes)
	alloc := phys.NewAllocator(mem, 0)
	cfg := DefaultConfig(19)
	cfg.Rand = rand.New(rand.NewSource(4))
	p, err := NewPageTable(alloc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, mem
}

func TestMapTranslateUnmap(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	vpn := addr.VPN(0xABCDE)
	if _, err := p.Map(vpn, addr.Page4K, 321); err != nil {
		t.Fatal(err)
	}
	if ppn, ok := p.TranslateSize(vpn, addr.Page4K); !ok || ppn != 321 {
		t.Fatalf("TranslateSize = %d,%v", ppn, ok)
	}
	tr, ok := p.Translate(vpn.Addr(addr.Page4K) + 5)
	if !ok || tr.PPN != 321 {
		t.Fatalf("Translate = %+v,%v", tr, ok)
	}
	if _, ok := p.Unmap(vpn, addr.Page4K); !ok {
		t.Fatal("Unmap failed")
	}
	if _, ok := p.TranslateSize(vpn, addr.Page4K); ok {
		t.Fatal("translation survived unmap")
	}
}

// TestContiguousWayGrowth: growing the table allocates progressively larger
// *contiguous* ways — the paper's motivating problem.
func TestContiguousWayGrowth(t *testing.T) {
	p, _ := newPT(t, 2*addr.GB)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 60000; i++ {
		if _, err := p.Map(addr.VPN(rng.Uint64()&0xFFFFFF), addr.Page4K, addr.PPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	tab := p.Table(addr.Page4K)
	if tab.ScalarStats().Upsizes == 0 {
		t.Fatal("no upsizes")
	}
	// Max contiguous allocation equals the largest way ever allocated.
	if got, want := tab.ScalarStats().MaxContiguousAlloc, tab.tb.EntriesPerWay()*pt.EntryBytes; got < want {
		t.Errorf("MaxContiguousAlloc = %d < final way %d", got, want)
	}
	if tab.ScalarStats().MaxContiguousAlloc < 64*addr.KB {
		t.Errorf("way stayed tiny: %d", tab.ScalarStats().MaxContiguousAlloc)
	}
}

// TestPeakIncludesOldAndNew: mid-resize, the footprint covers both tables
// (the 1.5x overhead in-place resizing eliminates).
func TestPeakIncludesOldAndNew(t *testing.T) {
	p, _ := newPT(t, 2*addr.GB)
	tab := p.Table(addr.Page4K)
	rng := rand.New(rand.NewSource(61))
	i := 0
	for len(tab.tb.WaySizes()) < 2 {
		p.Map(addr.VPN(rng.Uint64()&0xFFFFFF), addr.Page4K, addr.PPN(i))
		i++
		if i > 200000 {
			t.Fatal("never caught a resize in flight")
		}
	}
	cur := tab.FootprintBytes()
	steady := tab.tb.EntriesPerWay() * pt.EntryBytes * 3
	if cur <= steady {
		t.Errorf("mid-resize footprint %d not above steady %d", cur, steady)
	}
	tab.tb.DrainResize()
	if tab.FootprintBytes() >= cur {
		t.Errorf("footprint did not drop after resize completed")
	}
}

// TestAllocationFailureUnderFragmentation reproduces the paper's headline
// failure: above 0.7 FMFI a large contiguous way cannot be allocated and
// the application cannot make progress.
func TestAllocationFailureUnderFragmentation(t *testing.T) {
	mem := phys.NewMemory(1 * addr.GB)
	fr := phys.NewFragmenter(mem)
	rng := rand.New(rand.NewSource(13))
	// FMFI 1.0: nothing above 4KB coalesces.
	if err := fr.Fragment(1.0, 0.3, phys.OrderFor(64*addr.KB), rng); err != nil {
		t.Fatal(err)
	}
	mem.ResetStats()
	alloc := phys.NewAllocator(mem, 0.9)
	cfg := DefaultConfig(19)
	cfg.Rand = rand.New(rand.NewSource(4))
	// Even the initial 8KB ways cannot be allocated contiguously.
	if _, err := NewPageTable(alloc, cfg); err == nil {
		t.Fatal("ECPT creation succeeded on fully-shredded memory")
	}
}

func TestUpsizeFailureKeepsRunningUntilFull(t *testing.T) {
	mem := phys.NewMemory(4 * addr.GB)
	fr := phys.NewFragmenter(mem)
	rng := rand.New(rand.NewSource(17))
	// Leave 64KB regions intact but nothing larger: ways can grow to 64KB
	// and then upsizes start failing.
	if err := fr.Fragment(1.0, 0.4, phys.OrderFor(512*addr.KB), rng); err != nil {
		t.Fatal(err)
	}
	// Manually free a few 64KB-aligned runs so small ways still allocate.
	mem.ResetStats()
	alloc := phys.NewAllocator(mem, 0.8)
	cfg := DefaultConfig(23)
	cfg.Rand = rand.New(rand.NewSource(40))
	p, err := NewPageTable(alloc, cfg)
	if err != nil {
		t.Skipf("not enough contiguity even for initial tables: %v", err)
	}
	var sawErr bool
	for i := 0; i < 300000; i++ {
		if _, err := p.Map(addr.VPN(rng.Uint64()&0xFFFFFF), addr.Page4K, addr.PPN(i)); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("table kept growing despite fragmentation caps")
	}
	if p.Table(addr.Page4K).ScalarStats().FailedAllocs == 0 {
		t.Error("no failed allocations recorded")
	}
}

func TestModelEquivalence(t *testing.T) {
	p, _ := newPT(t, 2*addr.GB)
	model := make(map[addr.VPN]addr.PPN)
	rng := rand.New(rand.NewSource(51))
	for step := 0; step < 30000; step++ {
		vpn := addr.VPN(rng.Uint64() & 0x7FFFF)
		switch rng.Intn(3) {
		case 0, 1:
			ppn := addr.PPN(rng.Uint64() & 0xFFFFFF)
			if _, err := p.Map(vpn, addr.Page4K, ppn); err != nil {
				t.Fatal(err)
			}
			model[vpn] = ppn
		case 2:
			_, gotOK := p.Unmap(vpn, addr.Page4K)
			_, wantOK := model[vpn]
			if gotOK != wantOK {
				t.Fatalf("Unmap(%d) = %v, want %v", vpn, gotOK, wantOK)
			}
			delete(model, vpn)
		}
	}
	for vpn, want := range model {
		got, ok := p.TranslateSize(vpn, addr.Page4K)
		if !ok || got != want {
			t.Fatalf("TranslateSize(%d) = %d,%v want %d", vpn, got, ok, want)
		}
	}
}

// heldSlotAddr returns the physical address of the slot holding key, read
// from the table's captured state: the old ways live in the first group,
// the resize target in the last. It is the address a walk that hits key
// must report as its probe.
func heldSlotAddr(st TableState, key uint64) (addr.PhysAddr, bool) {
	for gen, ways := range [][]cuckoo.WayState{st.Cuckoo.Cur, st.Cuckoo.Next} {
		g := st.Groups[0]
		if gen == 1 {
			g = st.Groups[len(st.Groups)-1]
		}
		for w, ws := range ways {
			for idx, e := range ws.Slots {
				if e.Key == key {
					return g.Bases[w].Addr(addr.Page4K) + addr.PhysAddr(uint64(idx)*pt.EntryBytes), true
				}
			}
		}
	}
	return 0, false
}

// TestProbeAddrsStable: walking a mapped page twice reports the same probe
// address.
func TestProbeAddrsStable(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	va := addr.VirtAddr(0x5555_0000)
	if _, err := p.Map(va.PageNumber(addr.Page4K), addr.Page4K, 7); err != nil {
		t.Fatal(err)
	}
	_, a, aok := p.Walk(va)
	_, b, bok := p.Walk(va)
	if !aok || !bok || a != b || a == 0 {
		t.Errorf("probe address unstable: %#x,%v then %#x,%v", uint64(a), aok, uint64(b), bok)
	}
}

// TestWayOfConsistentWithProbe: WayOf finds every page just mapped, and
// Walk's probe address is the slot that holds its cluster, in whichever
// generation of ways the rehash pointers place it.
func TestWayOfConsistentWithProbe(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	rng := rand.New(rand.NewSource(99))
	var vpns []addr.VPN
	for i := 0; i < 5000; i++ {
		vpn := addr.VPN(rng.Uint64() & 0xFFFFF)
		p.Map(vpn, addr.Page4K, addr.PPN(i))
		if _, ok := p.WayOf(vpn.Addr(addr.Page4K), addr.Page4K); !ok {
			t.Fatalf("WayOf missed vpn %d just mapped", vpn)
		}
		vpns = append(vpns, vpn)
		if i%500 != 499 {
			continue
		}
		st := p.Table(addr.Page4K).State()
		for _, vpn := range vpns {
			_, probe, ok := p.Walk(vpn.Addr(addr.Page4K))
			if !ok {
				t.Fatalf("Walk missed mapped vpn %d", vpn)
			}
			if want, held := heldSlotAddr(st, pt.ClusterKey(vpn)); !held || probe != want {
				t.Fatalf("vpn %d: Walk probe %#x, holding slot %#x (found %v)", vpn, uint64(probe), uint64(want), held)
			}
		}
	}
}

func TestFreeReturnsMemory(t *testing.T) {
	mem := phys.NewMemory(2 * addr.GB)
	alloc := phys.NewAllocator(mem, 0)
	cfg := DefaultConfig(19)
	cfg.Rand = rand.New(rand.NewSource(4))
	p, err := NewPageTable(alloc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30000; i++ {
		p.Map(addr.VPN(rng.Uint64()&0xFFFFF), addr.Page4K, addr.PPN(i))
	}
	p.Free()
	if mem.FreeBytes() != mem.TotalBytes() {
		t.Errorf("leak: %d of %d free", mem.FreeBytes(), mem.TotalBytes())
	}
}

func TestClusterSharing(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	base := addr.VPN(0x2000)
	for i := 0; i < pt.ClusterSpan; i++ {
		p.Map(base+addr.VPN(i), addr.Page4K, addr.PPN(i))
	}
	if n := p.Table(addr.Page4K).tb.Len(); n != 1 {
		t.Errorf("cluster entries = %d, want 1", n)
	}
}
