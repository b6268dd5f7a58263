// Package nested models two-dimensional (virtualized) address translation:
// a guest page table maps guest-virtual to guest-physical, and a host page
// table maps guest-physical to host-physical. Section V-C of the paper
// argues ME-HPT is even cheaper under virtualization (guest HPTs are spread
// over host pages, so no guest L2P table exists, and the host L2P is not
// saved on guest switches); the underlying performance story is the one
// quantified here and in the nested-ECPT follow-up the paper cites [79]:
//
//   - A nested radix walk translates every guest page-table access through
//     the host tree: (L+1) guest-level accesses × (L+1) host accesses − 1,
//     i.e. up to 24 dependent accesses for two 4-level trees.
//   - A nested hashed walk needs one guest probe plus one host probe (plus
//     the final data translation), independent of address-space size.
//
// The model composes two page tables with a nested TLB (gVA→hPA) and
// charges host translations for every guest-structure access a walk makes.
package nested

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/cwc"
	"repro/internal/hashfn"
	"repro/internal/mmu"
	"repro/internal/pt"
	"repro/internal/radix"
	"repro/internal/tlb"
)

// walkAddrs walks table for va and returns the page-table entries the
// walk reads — the tree's entries, root first, or the single hashed probe
// (none on a hashed miss) — and the translated address.
func walkAddrs(table mmu.Table, va addr.VirtAddr) ([]addr.PhysAddr, addr.PhysAddr, bool) {
	var pas []addr.PhysAddr
	var tr pt.Translation
	var ok bool
	if t, isRadix := table.(*radix.PageTable); isRadix {
		pas, tr, ok = t.AppendWalkAddrs(nil, va)
	} else {
		var probe addr.PhysAddr
		if tr, probe, ok = table.(mmu.HPTPageTable).Walk(va); ok {
			pas = []addr.PhysAddr{probe}
		}
	}
	if !ok {
		return pas, 0, false
	}
	return pas, addr.Translate(va, tr.PPN, tr.Size), true
}

// Stats counts nested-translation behaviour.
type Stats struct {
	Translations uint64
	TLBHits      uint64
	Walks        uint64
	WalkCycles   uint64
	WalkAccesses uint64 // memory accesses performed by 2D walks
	Faults       uint64
}

// MMU performs two-dimensional translation with a nested TLB that caches
// complete gVA→hPA translations, as real hardware does.
type MMU struct {
	guest mmu.Table
	host  mmu.Table
	mem   *cache.Hierarchy
	ntlb  *tlb.TLB
	cwc   *cwc.Walker // charged for hashed guests; nil for radix guests
	stats Stats
}

// NewMMU builds a nested MMU over a guest and a host page table, each a
// *radix.PageTable or an mmu.HPTPageTable. A hashed guest's walk is charged
// the hash and CWC latencies, a radix guest's the PWC latency.
func NewMMU(guest, host mmu.Table, mem *cache.Hierarchy) *MMU {
	m := &MMU{
		guest: guest,
		host:  host,
		mem:   mem,
		ntlb:  tlb.New(tlb.Config{Entries: 1024, Ways: 8, Latency: 2}),
	}
	if _, hashed := guest.(mmu.HPTPageTable); hashed {
		m.cwc = cwc.New()
	}
	return m
}

// Stats returns the counters.
func (m *MMU) Stats() Stats { return m.stats }

// Translate resolves a guest-virtual address to host-physical, charging the
// full two-dimensional walk on a nested-TLB miss.
func (m *MMU) Translate(gva addr.VirtAddr) (addr.PhysAddr, uint64, bool) {
	m.stats.Translations++
	vpn := gva.PageNumber(addr.Page4K)
	if _, ok := m.ntlb.Lookup(vpn); ok {
		m.stats.TLBHits++
		// The nested TLB holds the complete translation; re-derive the hPA
		// functionally.
		if hpa, _, ok := m.resolve(gva); ok {
			return hpa, m.ntlb.Latency(), true
		}
	}
	m.stats.Walks++
	hpa, cycles, ok := m.walk(gva)
	m.stats.WalkCycles += cycles
	if !ok {
		m.stats.Faults++
		return 0, cycles, false
	}
	m.ntlb.Insert(vpn, 0)
	return hpa, cycles, true
}

// resolve recomputes gVA→hPA without charging cycles (TLB-hit path).
func (m *MMU) resolve(gva addr.VirtAddr) (addr.PhysAddr, uint64, bool) {
	_, gpa, ok := walkAddrs(m.guest, gva)
	if !ok {
		return 0, 0, false
	}
	_, hpa, ok := m.hostWalk(gpa)
	return hpa, 0, ok
}

// hostWalk walks the host table for gpa, which in nested paging is the host
// walk's virtual input.
func (m *MMU) hostWalk(gpa addr.PhysAddr) ([]addr.PhysAddr, addr.PhysAddr, bool) {
	return walkAddrs(m.host, addr.VirtAddr(gpa)) //mehpt:allow addrspace -- nested paging: the gPA is, by definition, the host walk's virtual input
}

// walk performs the priced 2D walk: every guest access is itself
// host-translated, then the final gPA is host-translated too.
func (m *MMU) walk(gva addr.VirtAddr) (addr.PhysAddr, uint64, bool) {
	var cycles uint64
	if m.cwc != nil {
		// Hashed guest: hash + CWC, as in the native walk.
		_, _, lat := m.cwc.Probe(gva)
		if lat < hashfn.Latency {
			lat = hashfn.Latency
		}
		cycles += lat
	} else {
		cycles += 4 // PWC probe latency
	}
	guestAccesses, gpa, ok := walkAddrs(m.guest, gva)
	for _, ga := range guestAccesses {
		// Each guest-structure access is a guest-physical address that the
		// hardware must host-translate before touching memory.
		hostAccesses, hpa, hok := m.hostWalk(ga)
		if !hok {
			return 0, cycles, false
		}
		for _, ha := range hostAccesses {
			cycles += m.mem.AccessPT(ha)
			m.stats.WalkAccesses++
		}
		cycles += m.mem.AccessPT(hpa)
		m.stats.WalkAccesses++
	}
	if !ok {
		return 0, cycles, false
	}
	// Final: translate the leaf gPA to hPA.
	hostAccesses, hpa, hok := m.hostWalk(gpa)
	if !hok {
		return 0, cycles, false
	}
	for _, ha := range hostAccesses {
		cycles += m.mem.AccessPT(ha)
		m.stats.WalkAccesses++
	}
	return hpa, cycles, true
}
