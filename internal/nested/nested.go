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
	"repro/internal/radix"
	"repro/internal/tlb"
)

// HostTranslator is the host side of the 2D walk: it resolves a
// guest-physical address and reports the walk's memory accesses.
type HostTranslator interface {
	// TranslateGPA resolves a guest-physical address, returning the
	// host-physical address, the host-walk memory accesses (host-physical),
	// and whether the translation exists.
	TranslateGPA(gpa addr.PhysAddr) (addr.PhysAddr, []addr.PhysAddr, bool)
}

// RadixHost adapts a host radix tree.
type RadixHost struct {
	PT *radix.PageTable
}

// TranslateGPA walks the host tree for gpa (treated as a host-virtual
// address of the guest's "physical" space, the standard nested layout).
func (h *RadixHost) TranslateGPA(gpa addr.PhysAddr) (addr.PhysAddr, []addr.PhysAddr, bool) {
	//mehpt:allow addrspace -- nested paging: the gPA is, by definition, the host walk's virtual input
	pas, tr, ok := h.PT.WalkAddrs(addr.VirtAddr(gpa))
	if !ok {
		return 0, pas, false
	}
	return addr.Translate(addr.VirtAddr(gpa), tr.PPN, tr.Size), pas, true //mehpt:allow addrspace -- same gPA-as-host-VA crossing as above
}

// HPTHost adapts a host hashed page table (ECPT or ME-HPT).
type HPTHost struct {
	PT mmu.HPTPageTable
}

// TranslateGPA probes the host HPT: a single targeted access.
func (h *HPTHost) TranslateGPA(gpa addr.PhysAddr) (addr.PhysAddr, []addr.PhysAddr, bool) {
	va := addr.VirtAddr(gpa) //mehpt:allow addrspace -- nested paging: the gPA is, by definition, the host walk's virtual input
	tr, probe, ok := h.PT.Walk(va)
	if !ok {
		return 0, nil, false
	}
	return addr.Translate(va, tr.PPN, tr.Size), []addr.PhysAddr{probe}, true
}

// GuestWalker is the guest side: it reports the guest-physical addresses a
// guest walk touches and the final guest-physical translation.
type GuestWalker interface {
	WalkGVA(gva addr.VirtAddr) (accesses []addr.PhysAddr, gpa addr.PhysAddr, ok bool)
}

// RadixGuest adapts a guest radix tree.
type RadixGuest struct {
	PT *radix.PageTable
}

// WalkGVA performs the guest tree walk.
func (g *RadixGuest) WalkGVA(gva addr.VirtAddr) ([]addr.PhysAddr, addr.PhysAddr, bool) {
	pas, tr, ok := g.PT.WalkAddrs(gva)
	if !ok {
		return pas, 0, false
	}
	return pas, addr.Translate(gva, tr.PPN, tr.Size), true
}

// HPTGuest adapts a guest hashed page table.
type HPTGuest struct {
	PT mmu.HPTPageTable
}

// WalkGVA probes the guest HPT once.
func (g *HPTGuest) WalkGVA(gva addr.VirtAddr) ([]addr.PhysAddr, addr.PhysAddr, bool) {
	tr, probe, ok := g.PT.Walk(gva)
	if !ok {
		return nil, 0, false
	}
	return []addr.PhysAddr{probe}, addr.Translate(gva, tr.PPN, tr.Size), true
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
	guest GuestWalker
	host  HostTranslator
	mem   *cache.Hierarchy
	ntlb  *tlb.TLB
	cwc   *cwc.Walker // charged for HPT guests; nil for radix guests
	stats Stats
}

// NewMMU builds a nested MMU. Pass hashedGuest=true when the guest walker
// is an HPT so the CWC/hash latencies are charged instead of PWC latency.
func NewMMU(guest GuestWalker, host HostTranslator, mem *cache.Hierarchy, hashedGuest bool) *MMU {
	m := &MMU{
		guest: guest,
		host:  host,
		mem:   mem,
		ntlb:  tlb.New(tlb.Config{Entries: 1024, Ways: 8, Latency: 2}),
	}
	if hashedGuest {
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
	_, gpa, ok := m.guest.WalkGVA(gva)
	if !ok {
		return 0, 0, false
	}
	hpa, _, ok := m.host.TranslateGPA(gpa)
	return hpa, 0, ok
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
	guestAccesses, gpa, ok := m.guest.WalkGVA(gva)
	for _, ga := range guestAccesses {
		// Each guest-structure access is a guest-physical address that the
		// hardware must host-translate before touching memory.
		hpa, hostAccesses, hok := m.host.TranslateGPA(ga)
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
	hpa, hostAccesses, hok := m.host.TranslateGPA(gpa)
	if !hok {
		return 0, cycles, false
	}
	for _, ha := range hostAccesses {
		cycles += m.mem.AccessPT(ha)
		m.stats.WalkAccesses++
	}
	return hpa, cycles, true
}
