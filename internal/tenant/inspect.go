package tenant

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/phys"
)

// This file is the scrubber's window into a machine: read-only visitation
// of frame ownership, live mappings, and translation-cache residency. The
// invariant logic itself lives in internal/scrub, which imports tenant —
// never the other way around.

// Pool returns the machine-wide striped allocator for inspection.
func (m *Machine) Pool() *phys.Striped { return m.pool }

// frameVisitor, mappingVisitor, and tableChecker are satisfied by all
// three page-table organizations.
type frameVisitor interface {
	VisitOwnedFrames(f func(base addr.PPN, bytes uint64))
}

type mappingVisitor interface {
	VisitMappings(f func(vpn addr.VPN, s addr.PageSize, ppn addr.PPN))
}

type tableChecker interface {
	CheckTables() []string
}

// VisitPageTableFrames reports every physical block owned by tenant page
// tables as (pid, base PPN, bytes).
func (m *Machine) VisitPageTableFrames(f func(pid int, base addr.PPN, bytes uint64)) {
	for _, p := range m.procs {
		pid := p.id
		p.table.(frameVisitor).VisitOwnedFrames(func(base addr.PPN, bytes uint64) {
			f(pid, base, bytes)
		})
	}
}

// VisitDataMappings reports every live private translation as (pid, vpn,
// size, ppn).
func (m *Machine) VisitDataMappings(f func(pid int, vpn addr.VPN, s addr.PageSize, ppn addr.PPN)) {
	for _, p := range m.procs {
		pid := p.id
		p.table.(mappingVisitor).VisitMappings(func(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) {
			f(pid, vpn, s, ppn)
		})
	}
}

// VisitSharedMappings reports every shared-segment page as (page index,
// frame). Every shared frame is one 4KB page.
func (m *Machine) VisitSharedMappings(f func(page uint64, ppn addr.PPN)) {
	base := m.shared.vpn(0)
	m.shared.table.Range(func(key, val uint64) bool {
		f(key-base, addr.PPN(val))
		return true
	})
}

// CheckTables runs every organization's structural self-checks (occupancy
// counters, resize bits, chunk backing, tree node accounting) across all
// tenants, returning one message per violation prefixed with the owning
// tenant.
func (m *Machine) CheckTables() []string {
	var bad []string
	for _, p := range m.procs {
		for _, msg := range p.table.(tableChecker).CheckTables() {
			bad = append(bad, fmt.Sprintf("proc %d: %s", p.id, msg))
		}
	}
	return bad
}

// CheckShardTLBs verifies TLB coherence: every translation resident in a
// core's TLBs must still resolve — at the cached page size and to the
// cached frame — as the core's MMU walks it: through the shared segment's
// table inside its window, through the bound address space elsewhere.
// Unbound shards (a freshly restored machine) carry nothing and pass
// vacuously.
//
// It resolves through the read-only visitors (VisitMappings, the shared
// table's Range), never Translate or Lookup: those count into table
// statistics that the machine state and the fingerprint carry, so a scrub
// through them would change the run it inspects.
func (m *Machine) CheckShardTLBs() []string {
	var bad []string
	for core, sh := range m.shards {
		// An unbound shard's TLBs were never filled (bind flushes), so any
		// resident entry is already a violation: nothing resolves.
		live := map[pageKey]addr.PPN{}
		if table := sh.mmu.Table(); table != nil {
			table.(mappingVisitor).VisitMappings(func(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) {
				live[pageKey{vpn, s}] = ppn
			})
			m.shared.table.Range(func(key, val uint64) bool {
				live[pageKey{addr.VPN(key), addr.Page4K}] = addr.PPN(val)
				return true
			})
		}
		sh.mmu.TLB.VisitEntries(func(vpn addr.VPN, s addr.PageSize, level int, pay uint64) {
			ppn, size, ok := resolve(live, vpn.Addr(s))
			switch {
			case !ok || size != s:
				bad = append(bad, fmt.Sprintf("core %d: L%d TLB holds %v page %#x with no live translation",
					core, level, s, uint64(vpn)))
			case uint64(ppn) != pay:
				// The MMU completes TLB hits from the cached payload, so
				// a payload that drifted from the table is a silently
				// wrong translation, not just a bookkeeping error.
				bad = append(bad, fmt.Sprintf("core %d: L%d TLB caches %v page %#x with PPN %#x but the table resolves %#x",
					core, level, s, uint64(vpn), pay, uint64(ppn)))
			}
		})
	}
	return bad
}

// pageKey names one mapping: a page number at a page size.
type pageKey struct {
	vpn  addr.VPN
	size addr.PageSize
}

// resolve translates va against a table's live mappings the way the
// table's Translate does: the largest page size that maps va wins.
func resolve(live map[pageKey]addr.PPN, va addr.VirtAddr) (addr.PPN, addr.PageSize, bool) {
	for i := int(addr.NumPageSizes) - 1; i >= 0; i-- {
		s := addr.PageSize(i)
		if ppn, ok := live[pageKey{va.PageNumber(s), s}]; ok {
			return ppn, s, true
		}
	}
	return 0, 0, false
}
