package ecpt

import (
	"repro/internal/addr"
	"repro/internal/phys"
	"repro/internal/pt"
)

// PageTable is a process's complete ECPT: one Table per page size plus the
// shared cluster slab. Per-page-size tables are created lazily on first
// mapping (as in ME-HPT), except the 4KB table, which every process needs
// immediately — creating it eagerly surfaces contiguous-allocation failures
// at process start, the paper's "program failure" scenario.
type PageTable struct {
	tables [addr.NumPageSizes]*Table
	slab   pt.Slab
	//mehpt:transient -- RestorePageTable reattaches the separately restored physical allocator
	alloc phys.Source
	//mehpt:transient -- RestorePageTable requires the caller to re-supply the same Config (incl. a repositioned Rand)
	cfg Config
}

// NewPageTable creates a process's ECPT with its initial 4KB table.
func NewPageTable(alloc phys.Source, cfg Config) (*PageTable, error) {
	p := &PageTable{alloc: alloc, cfg: cfg}
	t, err := NewTable(addr.Page4K, alloc, cfg)
	if err != nil {
		return nil, err
	}
	p.tables[addr.Page4K] = t
	return p, nil
}

// Table returns the per-page-size table, or nil if unused so far.
func (p *PageTable) Table(s addr.PageSize) *Table { return p.tables[s] }

// table returns the per-page-size table, creating it on first use.
func (p *PageTable) table(s addr.PageSize) (*Table, error) {
	if p.tables[s] == nil {
		t, err := NewTable(s, p.alloc, p.cfg)
		if err != nil {
			return nil, err
		}
		p.tables[s] = t
	}
	return p.tables[s], nil
}

// Map installs the translation vpn→ppn at the given page size.
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
	before := t.stats.AllocCycles
	id := p.slab.Alloc()
	p.slab.At(id).Set(sub, ppn)
	if _, err := t.Insert(key, id); err != nil {
		p.slab.Free(id)
		return t.stats.AllocCycles - before, err
	}
	return t.stats.AllocCycles - before, nil
}

// Unmap removes the translation for vpn at the given page size.
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
		before := t.stats.AllocCycles
		t.Delete(key)
		p.slab.Free(id)
		return t.stats.AllocCycles - before, true
	}
	return 0, true
}

// Translate resolves va against all page sizes, largest first.
//mehpt:hotpath
func (p *PageTable) Translate(va addr.VirtAddr) (pt.Translation, bool) {
	for i := int(addr.NumPageSizes) - 1; i >= 0; i-- {
		s := addr.PageSize(i)
		if ppn, ok := p.TranslateSize(va.PageNumber(s), s); ok {
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

// ProbeAddrs returns the physical addresses of the W parallel way probes
// for va at page size s.
func (p *PageTable) ProbeAddrs(va addr.VirtAddr, s addr.PageSize) []addr.PhysAddr {
	t := p.tables[s]
	if t == nil {
		return nil
	}
	key := pt.ClusterKey(va.PageNumber(s))
	pas := make([]addr.PhysAddr, t.ways)
	for i := 0; i < t.ways; i++ {
		pas[i] = t.ProbeAddr(i, key)
	}
	return pas
}

// WayProbeAddr returns the physical address of one way's probe slot.
//mehpt:hotpath
func (p *PageTable) WayProbeAddr(va addr.VirtAddr, s addr.PageSize, wayIdx int) addr.PhysAddr {
	return p.tables[s].ProbeAddr(wayIdx, pt.ClusterKey(va.PageNumber(s)))
}

// Walk resolves va and returns the physical address of the winning way's
// probe slot — the fused equivalent of Translate + WayOf + WayProbeAddr the
// MMU's miss path uses, with the identical per-table statistics footprint
// (one Lookup per instantiated size table until the hit).
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
		id, way, ok := t.LookupWay(key)
		if !ok {
			continue
		}
		ppn, valid := p.slab.At(id).Get(pt.SubIndex(vpn))
		if !valid {
			continue
		}
		return pt.Translation{PPN: ppn, Size: s}, t.ProbeAddr(way, key), true
	}
	return pt.Translation{}, 0, false
}

// WayOf returns the way index holding va's cluster at page size s.
//mehpt:hotpath
func (p *PageTable) WayOf(va addr.VirtAddr, s addr.PageSize) (int, bool) {
	if p.tables[s] == nil {
		return 0, false
	}
	return p.tables[s].WayOf(pt.ClusterKey(va.PageNumber(s)))
}

// FootprintBytes returns the total page-table memory currently held.
func (p *PageTable) FootprintBytes() uint64 {
	var b uint64
	for _, s := range addr.Sizes() {
		if t := p.tables[s]; t != nil {
			b += t.FootprintBytes()
		}
	}
	return b
}

// PeakFootprintBytes returns the high-water mark of page-table memory.
func (p *PageTable) PeakFootprintBytes() uint64 {
	var b uint64
	for _, s := range addr.Sizes() {
		if t := p.tables[s]; t != nil {
			b += t.ScalarStats().PeakFootprintBytes
		}
	}
	return b
}

// MaxContiguousAlloc returns the largest contiguous allocation requested —
// for ECPT this is the largest way ever allocated (Table I column 4).
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

// Moves returns the total number of entries migrated between tables during
// gradual resizes, across all page sizes.
func (p *PageTable) Moves() uint64 {
	var m uint64
	for _, s := range addr.Sizes() {
		if t := p.tables[s]; t != nil {
			m += t.ScalarStats().Moves
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

// Free releases all physical memory held by the page table.
func (p *PageTable) Free() {
	for _, s := range addr.Sizes() {
		if t := p.tables[s]; t != nil {
			t.Free()
		}
	}
}
