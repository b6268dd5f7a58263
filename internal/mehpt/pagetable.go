package mehpt

import (
	"repro/internal/addr"
	"repro/internal/l2p"
	"repro/internal/phys"
	"repro/internal/pt"
)

// PageTable is a process's complete ME-HPT: one Table per supported page
// size, a shared cluster slab, and the process's L2P table.
//
// Per-page-size tables are created lazily on the first mapping at that
// size: a process that never uses, say, 1GB pages holds no chunks and no
// L2P entries for them. This matters beyond memory thrift — an unused 1GB
// subtable is what lets a 4KB subtable steal its L2P region and grow to 64
// chunks (Section V-A; GUPS needs exactly this to stay on 1MB chunks).
type PageTable struct {
	tables [addr.NumPageSizes]*Table
	slab   pt.Slab
	l2pTbl *l2p.Table
	//mehpt:transient -- RestorePageTable reattaches the separately restored physical allocator
	alloc phys.Source
	//mehpt:transient -- RestorePageTable requires the caller to re-supply the same Config (incl. a repositioned Rand)
	cfg Config
}

// NewPageTable creates a process's ME-HPT. No physical memory is allocated
// until the first mapping of each page size.
func NewPageTable(alloc phys.Source, cfg Config) (*PageTable, error) {
	if cfg.Ways < 2 {
		panic("mehpt: need at least 2 ways")
	}
	return &PageTable{
		l2pTbl: l2p.New(cfg.Ways),
		alloc:  alloc,
		cfg:    cfg,
	}, nil
}

// Table returns the per-page-size table, or nil if no page of that size has
// been mapped yet.
func (p *PageTable) Table(s addr.PageSize) *Table { return p.tables[s] }

// table returns the per-page-size table, creating it on first use.
func (p *PageTable) table(s addr.PageSize) (*Table, error) {
	if p.tables[s] == nil {
		t, err := NewTable(s, p.alloc, p.l2pTbl, &p.slab, p.cfg)
		if err != nil {
			return nil, err
		}
		p.tables[s] = t
	}
	return p.tables[s], nil
}

// L2P returns the process's L2P table.
func (p *PageTable) L2P() *l2p.Table { return p.l2pTbl }

// L2PSaveRestoreEntries returns the number of valid L2P entries a context
// switch must save and restore (Section V-C).
func (p *PageTable) L2PSaveRestoreEntries() int { return p.l2pTbl.SaveRestoreEntries() }

// Map installs the translation vpn→ppn at the given page size. It returns
// the allocation cycle cost incurred by chunk allocations and resizes.
func (p *PageTable) Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error) {
	t, err := p.table(s)
	if err != nil {
		return 0, err
	}
	key := pt.ClusterKey(vpn)
	sub := pt.SubIndex(vpn)
	if id, ok := t.Lookup(key); ok {
		p.slab.At(id).Set(sub, ppn)
		return 0, nil
	}
	id := p.slab.Alloc()
	p.slab.At(id).Set(sub, ppn)
	_, cycles, err := t.Insert(key, id)
	if err != nil {
		p.slab.Free(id)
		return cycles, err
	}
	return cycles, nil
}

// Unmap removes the translation for vpn at the given page size, reporting
// whether it existed.
func (p *PageTable) Unmap(vpn addr.VPN, s addr.PageSize) (uint64, bool) {
	t := p.tables[s]
	if t == nil {
		return 0, false
	}
	key := pt.ClusterKey(vpn)
	id, ok := t.Lookup(key)
	if !ok {
		return 0, false
	}
	c := p.slab.At(id)
	if _, valid := c.Get(pt.SubIndex(vpn)); !valid {
		return 0, false
	}
	if c.Clear(pt.SubIndex(vpn)) {
		cycles, _ := t.Delete(key)
		p.slab.Free(id)
		return cycles, true
	}
	return 0, true
}

// Translate resolves va against all page sizes, largest first (a huge-page
// mapping shadows any stale base-page entries).
//mehpt:hotpath
func (p *PageTable) Translate(va addr.VirtAddr) (pt.Translation, bool) {
	for i := int(addr.NumPageSizes) - 1; i >= 0; i-- {
		s := addr.PageSize(i)
		vpn := va.PageNumber(s)
		if ppn, ok := p.TranslateSize(vpn, s); ok {
			return pt.Translation{PPN: ppn, Size: s}, true
		}
	}
	return pt.Translation{}, false
}

// TranslateSize resolves vpn at exactly the given page size.
//mehpt:hotpath
func (p *PageTable) TranslateSize(vpn addr.VPN, s addr.PageSize) (addr.PPN, bool) {
	if p.tables[s] == nil {
		return 0, false
	}
	id, ok := p.tables[s].Lookup(pt.ClusterKey(vpn))
	if !ok {
		return 0, false
	}
	return p.slab.At(id).Get(pt.SubIndex(vpn))
}

// Walk resolves va and returns the physical address of the winning way's
// probe slot — the fused equivalent of Translate + WayOf + WayProbeAddr the
// MMU's miss path uses. Its statistics footprint is identical: one Lookup
// counted per instantiated size table until the hit, and a stash-resident
// entry reports way 0's probe address (WayOf does not see the stash).
//mehpt:hotpath
func (p *PageTable) Walk(va addr.VirtAddr) (pt.Translation, addr.PhysAddr, bool) {
	for i := int(addr.NumPageSizes) - 1; i >= 0; i-- {
		s := addr.PageSize(i)
		t := p.tables[s]
		if t == nil {
			continue
		}
		vpn := va.PageNumber(s)
		key := pt.ClusterKey(vpn)
		t.stats.Lookups++ // mirrors Table.Lookup
		wi, idx, inWay := t.lookupSlot(key)
		var id uint64
		if inWay {
			id = t.ways[wi].slots[idx].Val
		} else {
			si := t.stashIndex(key)
			if si < 0 {
				continue
			}
			id = t.stash[si].Val
		}
		ppn, valid := p.slab.At(id).Get(pt.SubIndex(vpn))
		if !valid {
			continue
		}
		var pa addr.PhysAddr
		if inWay {
			pa = t.ways[wi].slotPA(idx)
		} else {
			w := t.ways[0]
			pa = w.slotPA(w.locate(key))
		}
		return pt.Translation{PPN: ppn, Size: s}, pa, true
	}
	return pt.Translation{}, 0, false
}

// ProbeAddrs returns the physical addresses of the W slots a hardware walk
// probes (in parallel) for va at page size s — the addresses the MMU prices
// against the cache hierarchy.
func (p *PageTable) ProbeAddrs(va addr.VirtAddr, s addr.PageSize) []addr.PhysAddr {
	t := p.tables[s]
	if t == nil {
		return nil
	}
	key := pt.ClusterKey(va.PageNumber(s))
	pas := make([]addr.PhysAddr, len(t.ways))
	for i, w := range t.ways {
		pas[i] = w.slotPA(w.locate(key))
	}
	return pas
}

// WayProbeAddr returns the physical address of one way's probe slot for va
// at page size s — used when the cuckoo walk cache has narrowed the walk to
// a single way.
//mehpt:hotpath
func (p *PageTable) WayProbeAddr(va addr.VirtAddr, s addr.PageSize, wayIdx int) addr.PhysAddr {
	t := p.tables[s]
	key := pt.ClusterKey(va.PageNumber(s))
	w := t.ways[wayIdx]
	return w.slotPA(w.locate(key))
}

// WayOf returns the way index currently holding va's cluster at page size
// s, and whether it is present — ground truth for cuckoo walk tables.
//mehpt:hotpath
func (p *PageTable) WayOf(va addr.VirtAddr, s addr.PageSize) (int, bool) {
	t := p.tables[s]
	if t == nil {
		return 0, false
	}
	i, _, ok := t.lookupSlot(pt.ClusterKey(va.PageNumber(s)))
	return i, ok
}

// FootprintBytes returns the total physical page-table memory held across
// all page sizes.
func (p *PageTable) FootprintBytes() uint64 {
	var b uint64
	for _, s := range addr.Sizes() {
		if t := p.tables[s]; t != nil {
			b += t.FootprintBytes()
		}
	}
	return b
}

// PeakFootprintBytes returns the high-water mark of FootprintBytes.
func (p *PageTable) PeakFootprintBytes() uint64 {
	var b uint64
	for _, s := range addr.Sizes() {
		if t := p.tables[s]; t != nil {
			b += t.ScalarStats().PeakFootprintBytes
		}
	}
	return b
}

// MaxContiguousAlloc returns the largest contiguous allocation the page
// table ever requested (Figure 8's metric).
func (p *PageTable) MaxContiguousAlloc() uint64 {
	var m uint64
	for _, s := range addr.Sizes() {
		t := p.tables[s]
		if t == nil {
			continue
		}
		if c := t.ScalarStats().MaxContiguousAlloc; c > m {
			m = c
		}
	}
	return m
}

// Moves returns the total number of entries the page table moved in
// memory during resizes (migration writes), across all page sizes.
func (p *PageTable) Moves() uint64 {
	var m uint64
	for _, s := range addr.Sizes() {
		if t := p.tables[s]; t != nil {
			m += t.ScalarStats().MovesTotal
		}
	}
	return m
}

// AllocCycles returns total cycles spent on physical allocation.
func (p *PageTable) AllocCycles() uint64 {
	var c uint64
	for _, s := range addr.Sizes() {
		if t := p.tables[s]; t != nil {
			c += t.ScalarStats().AllocCycles
		}
	}
	return c
}

// Free releases all physical memory held by the page table (process exit).
func (p *PageTable) Free() {
	for _, s := range addr.Sizes() {
		t := p.tables[s]
		if t == nil {
			continue
		}
		t.DrainResizes() //mehpt:allow errwrap -- teardown: ways and pending stores are freed below regardless
		for _, w := range t.ways {
			w.store.Free()
			if w.pending != nil {
				w.pending.Free()
			}
		}
	}
}
