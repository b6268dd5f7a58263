package mehpt

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/phys"
	"repro/internal/pt"
)

func newPT(t *testing.T, memBytes uint64, mutate ...func(*Config)) (*PageTable, *phys.Memory) {
	t.Helper()
	mem := phys.NewMemory(memBytes)
	alloc := phys.NewAllocator(mem, 0)
	cfg := DefaultConfig(77)
	cfg.Rand = rand.New(rand.NewSource(5))
	for _, m := range mutate {
		m(&cfg)
	}
	p, err := NewPageTable(alloc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, mem
}

func TestMapTranslateUnmap(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	vpn := addr.VPN(0x12345)
	if _, err := p.Map(vpn, addr.Page4K, 999); err != nil {
		t.Fatal(err)
	}
	ppn, ok := p.TranslateSize(vpn, addr.Page4K)
	if !ok || ppn != 999 {
		t.Fatalf("TranslateSize = %d,%v", ppn, ok)
	}
	tr, ok := p.Translate(vpn.Addr(addr.Page4K) + 0x123)
	if !ok || tr.PPN != 999 || tr.Size != addr.Page4K {
		t.Fatalf("Translate = %+v,%v", tr, ok)
	}
	if _, ok := p.Unmap(vpn, addr.Page4K); !ok {
		t.Fatal("Unmap missed")
	}
	if _, ok := p.TranslateSize(vpn, addr.Page4K); ok {
		t.Fatal("translation survived unmap")
	}
	if _, ok := p.Unmap(vpn, addr.Page4K); ok {
		t.Fatal("double unmap reported success")
	}
}

func TestMultiplePageSizes(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	p.Map(addr.VPN(5), addr.Page2M, 100)
	p.Map(addr.VPN(5), addr.Page4K, 200) // same VPN number, different size
	if ppn, ok := p.TranslateSize(addr.VPN(5), addr.Page2M); !ok || ppn != 100 {
		t.Errorf("2MB entry = %d,%v", ppn, ok)
	}
	if ppn, ok := p.TranslateSize(addr.VPN(5), addr.Page4K); !ok || ppn != 200 {
		t.Errorf("4KB entry = %d,%v", ppn, ok)
	}
	// Translate prefers the larger size when both map the address.
	va := addr.VPN(5).Addr(addr.Page2M)
	tr, ok := p.Translate(va)
	if !ok || tr.Size != addr.Page2M {
		t.Errorf("Translate size = %v", tr.Size)
	}
}

// TestGrowthCorrectness drives tens of thousands of mappings and verifies
// every translation across all the resizes, transitions, and kicks.
func TestGrowthCorrectness(t *testing.T) {
	p, _ := newPT(t, 4*addr.GB)
	const n = 60000
	rng := rand.New(rand.NewSource(9))
	want := make(map[addr.VPN]addr.PPN, n)
	for len(want) < n {
		vpn := addr.VPN(rng.Uint64() & 0xFFFFFF)
		ppn := addr.PPN(rng.Uint64() & 0x3FFFFFF)
		if _, err := p.Map(vpn, addr.Page4K, ppn); err != nil {
			t.Fatalf("Map(%d): %v", vpn, err)
		}
		want[vpn] = ppn
	}
	for vpn, ppn := range want {
		got, ok := p.TranslateSize(vpn, addr.Page4K)
		if !ok || got != ppn {
			t.Fatalf("TranslateSize(%d) = %d,%v want %d", vpn, got, ok, ppn)
		}
	}
	st := p.Table(addr.Page4K).Stats()
	if sum(st.UpsizesPerWay) == 0 {
		t.Error("no upsizes despite 60k mappings")
	}
}

func sum(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestPerWayBalance: the balance rule keeps way sizes within 2x of each
// other at all times.
func TestPerWayBalance(t *testing.T) {
	p, _ := newPT(t, 4*addr.GB)
	rng := rand.New(rand.NewSource(3))
	var tab *Table
	for i := 0; i < 50000; i++ {
		vpn := addr.VPN(rng.Uint64() & 0xFFFFFF)
		if _, err := p.Map(vpn, addr.Page4K, addr.PPN(i)); err != nil {
			t.Fatal(err)
		}
		tab = p.Table(addr.Page4K)
		if i%1000 == 0 {
			sizes := tab.WaySizes()
			min, max := sizes[0], sizes[0]
			for _, s := range sizes {
				if s < min {
					min = s
				}
				if s > max {
					max = s
				}
			}
			if max > 2*min {
				t.Fatalf("way imbalance at step %d: %v", i, sizes)
			}
		}
	}
	// Upsizes spread across all ways (Figure 11's load balancing).
	ups := tab.Stats().UpsizesPerWay
	for i, u := range ups {
		if u == 0 {
			t.Errorf("way %d never upsized: %v", i, ups)
		}
	}
}

// TestInPlaceMoveFraction verifies Figure 13: ≈50% of entries stay in place
// during an in-place upsize.
func TestInPlaceMoveFraction(t *testing.T) {
	p, _ := newPT(t, 4*addr.GB)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40000; i++ {
		p.Map(addr.VPN(rng.Uint64()&0xFFFFFF), addr.Page4K, addr.PPN(i))
	}
	p.Table(addr.Page4K).DrainResizes()
	st := p.Table(addr.Page4K).Stats()
	total := st.UpsizeMoved + st.UpsizeStayed
	if total == 0 {
		t.Fatal("no upsize rehashes recorded")
	}
	frac := float64(st.UpsizeMoved) / float64(total)
	if frac < 0.40 || frac > 0.60 {
		t.Errorf("moved fraction = %.3f, want ≈0.5", frac)
	}
}

// TestChunkTransition reproduces Figure 3: growing a way past 512KB
// switches from 8KB to 1MB chunks, and max contiguous allocation stays 1MB.
func TestChunkTransition(t *testing.T) {
	p, _ := newPT(t, 4*addr.GB)
	rng := rand.New(rand.NewSource(13))
	// 512KB way = 8192 slots; 3 ways at 0.6 → trigger transitions well
	// before 200k clusters. Map distinct clusters (stride 8 pages).
	for i := 0; i < 120000; i++ {
		vpn := addr.VPN(rng.Uint64() & 0x3FFFFFF)
		p.Map(vpn, addr.Page4K, addr.PPN(i))
	}
	tab := p.Table(addr.Page4K)
	st := tab.Stats()
	if st.Transitions == 0 {
		t.Fatal("no chunk-size transition despite way growth past 512KB")
	}
	for i, cb := range tab.WayChunkBytes() {
		if cb != 1*addr.MB {
			t.Errorf("way %d chunk size = %d, want 1MB", i, cb)
		}
	}
	if st.MaxContiguousAlloc != 1*addr.MB {
		t.Errorf("MaxContiguousAlloc = %d, want 1MB", st.MaxContiguousAlloc)
	}
}

// TestOutOfPlacePeakMemory: the no-in-place ablation must show a higher
// peak footprint than full ME-HPT for the same workload, because old and
// new tables coexist during resizes.
func TestOutOfPlacePeakMemory(t *testing.T) {
	load := func(p *PageTable) uint64 {
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < 30000; i++ {
			if _, err := p.Map(addr.VPN(rng.Uint64()&0xFFFFFF), addr.Page4K, addr.PPN(i)); err != nil {
				t.Fatal(err)
			}
		}
		return p.PeakFootprintBytes()
	}
	inPlace, _ := newPT(t, 4*addr.GB)
	outPlace, _ := newPT(t, 4*addr.GB, func(c *Config) { c.InPlace = false })
	pi, po := load(inPlace), load(outPlace)
	if po <= pi {
		t.Errorf("out-of-place peak %d not above in-place peak %d", po, pi)
	}
}

// TestWeightedInsertionFavorsUpsizedWay: after one way upsizes, most inserts
// land there (Section IV-D).
func TestWeightedInsertionFavorsUpsizedWay(t *testing.T) {
	p, _ := newPT(t, 4*addr.GB)
	rng := rand.New(rand.NewSource(31))
	// Fill until the first upsize fires.
	p.Map(addr.VPN(1), addr.Page4K, 1)
	tab := p.Table(addr.Page4K)
	i := 0
	for sum(tab.Stats().UpsizesPerWay) == 0 {
		p.Map(addr.VPN(rng.Uint64()&0xFFFFFF), addr.Page4K, addr.PPN(i))
		i++
		if i > 100000 {
			t.Fatal("no upsize happened")
		}
	}
	tab.DrainResizes()
	// Identify the upsized (larger) way.
	sizes := tab.WaySizes()
	bigWay, bigSize := 0, uint64(0)
	for w, s := range sizes {
		if s > bigSize {
			bigWay, bigSize = w, s
		}
	}
	// Sample the insertion policy directly: the enlarged way has the most
	// free slots and must receive the bulk of fresh placements.
	counts := make([]int, len(tab.ways))
	for j := 0; j < 5000; j++ {
		counts[tab.pickInsertWay(-1)]++
	}
	// Expected share = free_big / Σ free; check it dominates.
	var freeBig, freeSum uint64
	for w := range tab.ways {
		f := tab.ways[w].free()
		freeSum += f
		if w == bigWay {
			freeBig = f
		}
	}
	wantShare := float64(freeBig) / float64(freeSum)
	gotShare := float64(counts[bigWay]) / 5000
	if gotShare < wantShare-0.05 || gotShare > wantShare+0.05 {
		t.Errorf("upsized way share = %.3f, want ≈%.3f (counts %v, sizes %v)",
			gotShare, wantShare, counts, sizes)
	}
	if gotShare <= 0.5 {
		t.Errorf("upsized way share %.3f does not dominate", gotShare)
	}
	_ = bigSize
}

// settle drains resizes and re-evaluates the resizing policy until the
// table reaches a fixed point. Gradual resizes advance only on inserts, so
// after a burst of unmaps several pending downsizes may be queued behind
// one another; settle applies them all.
func settle(t *testing.T, tab *Table) {
	t.Helper()
	for i := 0; i < 64; i++ {
		if err := tab.drainResizes(); err != nil {
			t.Fatal(err)
		}
		tab.maybeResize()
		if !tab.Resizing() {
			return
		}
	}
}

// TestDownsize: mass unmapping shrinks ways back down.
func TestDownsize(t *testing.T) {
	p, _ := newPT(t, 4*addr.GB)
	var vpns []addr.VPN
	rng := rand.New(rand.NewSource(41))
	p.Map(addr.VPN(0xFFFFFF), addr.Page4K, 1)
	tab := p.Table(addr.Page4K)
	vpns = append(vpns, addr.VPN(0xFFFFFF))
	for i := 0; i < 30000; i++ {
		vpn := addr.VPN(rng.Uint64() & 0xFFFFFF)
		p.Map(vpn, addr.Page4K, addr.PPN(i))
		vpns = append(vpns, vpn)
	}
	tab.DrainResizes()
	grown := tab.WaySizes()[0]
	for _, vpn := range vpns {
		p.Unmap(vpn, addr.Page4K)
	}
	settle(t, tab)
	if tab.Stats().Downsizes == 0 {
		t.Fatal("no downsizes after mass unmap")
	}
	shrunk := tab.WaySizes()
	for w, s := range shrunk {
		if s >= grown {
			t.Errorf("way %d did not shrink: %d", w, s)
		}
	}
	// All remaining lookups must fail.
	for _, vpn := range vpns[:100] {
		if _, ok := p.TranslateSize(vpn, addr.Page4K); ok {
			t.Fatalf("vpn %d still translated after unmap", vpn)
		}
	}
}

// TestModelEquivalence cross-checks against a map under random ops.
func TestModelEquivalence(t *testing.T) {
	p, _ := newPT(t, 4*addr.GB)
	model := make(map[addr.VPN]addr.PPN)
	rng := rand.New(rand.NewSource(51))
	for step := 0; step < 40000; step++ {
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

// TestReinsertionsDistribution sanity-checks Figure 16's shape: most
// inserts need zero re-insertions.
func TestReinsertionsDistribution(t *testing.T) {
	p, _ := newPT(t, 4*addr.GB)
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 50000; i++ {
		p.Map(addr.VPN(rng.Uint64()&0xFFFFFF), addr.Page4K, addr.PPN(i))
	}
	h := p.Table(addr.Page4K).Stats().Reinsertions
	if h.Total() == 0 {
		t.Fatal("no re-insertion observations")
	}
	if p0 := h.Probability(0); p0 < 0.5 {
		t.Errorf("P(0 reinsertions) = %.3f, want > 0.5 (paper: 0.64)", p0)
	}
	if m := h.Mean(); m > 1.5 {
		t.Errorf("mean reinsertions = %.3f, implausibly high", m)
	}
}

// TestProbeAddrs: hardware walk addresses are well-formed.
func TestProbeAddrs(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	va := addr.VirtAddr(0x7000_0000)
	if tbl := p.Table(addr.Page4K); tbl != nil {
		t.Fatal("4KB table exists before any mapping, want none (lazy tables)")
	}
	p.Map(va.PageNumber(addr.Page4K), addr.Page4K, 5)
	tbl := p.Table(addr.Page4K)
	if n := len(tbl.WaySizes()); n != 3 {
		t.Fatalf("way count = %d", n)
	}
	key := pt.ClusterKey(va.PageNumber(addr.Page4K))
	for i := range tbl.WaySizes() {
		if a, b := tbl.ProbeAddr(i, key), tbl.ProbeAddr(i, key); a != b {
			t.Errorf("probe address unstable for way %d", i)
		}
	}
	w, ok := p.WayOf(va, addr.Page4K)
	if !ok {
		t.Fatal("WayOf missed a mapped page")
	}
	if _, probe, ok := p.Walk(va); !ok || probe != tbl.ProbeAddr(w, key) {
		t.Errorf("Walk probe %#x (ok %v), probe of way %d %#x", uint64(probe), ok, w, uint64(tbl.ProbeAddr(w, key)))
	}
}

func TestWayOf(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	vpn := addr.VPN(0x4444)
	p.Map(vpn, addr.Page4K, 7)
	va := vpn.Addr(addr.Page4K)
	w, ok := p.WayOf(va, addr.Page4K)
	if !ok {
		t.Fatal("WayOf missed a mapped page")
	}
	if pa := p.Table(addr.Page4K).ProbeAddr(w, pt.ClusterKey(vpn)); pa == 0 {
		t.Error("probe address of holding way is zero")
	}
	if _, ok := p.WayOf(addr.VirtAddr(0xDEAD0000), addr.Page4K); ok {
		t.Error("WayOf found an unmapped page")
	}
}

// TestFreeReturnsMemory: process teardown releases everything.
func TestFreeReturnsMemory(t *testing.T) {
	mem := phys.NewMemory(1 * addr.GB)
	alloc := phys.NewAllocator(mem, 0)
	cfg := DefaultConfig(3)
	cfg.Rand = rand.New(rand.NewSource(8))
	p, err := NewPageTable(alloc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 20000; i++ {
		p.Map(addr.VPN(rng.Uint64()&0xFFFFF), addr.Page4K, addr.PPN(i))
	}
	p.Free()
	if mem.FreeBytes() != mem.TotalBytes() {
		t.Errorf("leak: %d of %d free after Free",
			mem.FreeBytes(), mem.TotalBytes())
	}
	if p.L2P().TotalUsed() != 0 {
		t.Errorf("L2P entries leaked: %d", p.L2P().TotalUsed())
	}
}

// TestInitialFootprint: tables are lazy, so a fresh page table holds no
// memory; the first 4KB mapping creates three 8KB ways (Table III's initial
// size) backed by one 8KB chunk each.
func TestInitialFootprint(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	if got := p.FootprintBytes(); got != 0 {
		t.Errorf("fresh footprint = %d, want 0 (lazy tables)", got)
	}
	p.Map(addr.VPN(1), addr.Page4K, 1)
	want := uint64(3) * 8 * addr.KB
	if got := p.FootprintBytes(); got != want {
		t.Errorf("footprint after first map = %d, want %d", got, want)
	}
	if got := p.MaxContiguousAlloc(); got != 8*addr.KB {
		t.Errorf("max contiguous = %d, want 8KB", got)
	}
	// The unused 1GB subtable leaves its L2P region stealable: a 4KB
	// subtable may grow to 64 entries (Section V-A / VII-D).
	if lim := p.L2P().Limit(0, addr.Page4K); lim != 64 {
		t.Errorf("4KB subtable limit = %d, want 64 with lazy sibling tables", lim)
	}
}

// TestLadderAblation: with a 1MB-only ladder (Figure 15), even a tiny table
// allocates a 1MB chunk per way.
func TestLadderAblation(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB, func(c *Config) {
		c.Ladder = []uint64{1 * addr.MB, 8 * addr.MB, 64 * addr.MB}
	})
	p.Map(addr.VPN(1), addr.Page4K, 1)
	want := uint64(3) * 1 * addr.MB
	if got := p.FootprintBytes(); got != want {
		t.Errorf("1MB-ladder footprint after first map = %d, want %d", got, want)
	}
}

func TestClusterSharing(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	// 8 pages of one cluster occupy a single table entry.
	base := addr.VPN(0x1000) // cluster-aligned (0x1000 % 8 == 0)
	for i := 0; i < pt.ClusterSpan; i++ {
		p.Map(base+addr.VPN(i), addr.Page4K, addr.PPN(100+i))
	}
	if n := p.Table(addr.Page4K).Len(); n != 1 {
		t.Errorf("cluster entries = %d, want 1", n)
	}
	for i := 0; i < pt.ClusterSpan; i++ {
		if ppn, ok := p.TranslateSize(base+addr.VPN(i), addr.Page4K); !ok || ppn != addr.PPN(100+i) {
			t.Errorf("page %d: %d,%v", i, ppn, ok)
		}
	}
	// Unmapping 7 of 8 keeps the entry; the 8th removes it.
	for i := 0; i < pt.ClusterSpan-1; i++ {
		p.Unmap(base+addr.VPN(i), addr.Page4K)
	}
	if n := p.Table(addr.Page4K).Len(); n != 1 {
		t.Errorf("entries after partial unmap = %d, want 1", n)
	}
	p.Unmap(base+addr.VPN(pt.ClusterSpan-1), addr.Page4K)
	if n := p.Table(addr.Page4K).Len(); n != 0 {
		t.Errorf("entries after full unmap = %d, want 0", n)
	}
}
