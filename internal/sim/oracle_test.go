package sim

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/mmu"
	"repro/internal/osmodel"
)

// flatOracle is the machine's translation specification: a flat
// (asid, vpn, size) → ppn map with no hashing, ways, chunks or resizes —
// the naive hashed page table of a teaching kernel (hpt_lookup and
// hpt_insert, keyed by address space and VPN) used as a specification. An
// address translates at the largest page size that maps it.
type flatOracle map[oracleKey]addr.PPN

// oracleKey names one mapping: a page of an address space at a page size.
type oracleKey struct {
	asid int
	vpn  addr.VPN
	size addr.PageSize
}

// translate returns the physical address va translates to in address
// space asid and the page size that maps it.
func (o flatOracle) translate(asid int, va addr.VirtAddr) (addr.PhysAddr, addr.PageSize, bool) {
	for i := int(addr.NumPageSizes) - 1; i >= 0; i-- {
		s := addr.PageSize(i)
		if ppn, ok := o[oracleKey{asid, va.PageNumber(s), s}]; ok {
			return addr.Translate(va, ppn, s), s, true
		}
	}
	return 0, 0, false
}

// recordingTable is the OS's page table, recording every mapping the OS
// installs in address space 0 of an oracle. The OS never unmaps.
type recordingTable struct {
	osmodel.PageTable
	oracle flatOracle
}

func (r recordingTable) Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error) {
	cycles, err := r.PageTable.Map(vpn, s, ppn)
	if err == nil {
		r.oracle[oracleKey{0, vpn, s}] = ppn
	}
	return cycles, err
}

// oracleMMU is the engine's MMU, checking every translation it hands the
// engine against address space 0 of an oracle: a TLB hit or a walk must
// give the oracle's physical address, and only an address the oracle does
// not map may fault.
type oracleMMU struct {
	MMU
	t      *testing.T
	oracle flatOracle
}

func (m oracleMMU) Translate(va addr.VirtAddr) mmu.Result {
	r := m.MMU.Translate(va)
	m.check(va, r)
	return r
}

func (m oracleMMU) TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64) {
	n, latSum, missLat := m.MMU.TranslateBatchPAs(vas, pas)
	for i := 0; i < n; i++ {
		m.check(vas[i], mmu.Result{PA: pas[i]})
	}
	return n, latSum, missLat
}

func (m oracleMMU) TranslateWalk(va addr.VirtAddr, missLat uint64) mmu.Result {
	r := m.MMU.TranslateWalk(va, missLat)
	m.check(va, r)
	return r
}

func (m oracleMMU) check(va addr.VirtAddr, r mmu.Result) {
	m.t.Helper()
	if pa, _, ok := m.oracle.translate(0, va); ok == r.Fault || ok && r.PA != pa {
		m.t.Fatalf("va %#x: MMU gave %+v, oracle %#x,%v", uint64(va), r, uint64(pa), ok)
	}
}

// oracleMachine builds cfg's machine with its OS recording every mapping,
// 4KB or THP 2MB, into a fresh oracle and its MMU checked against it.
func oracleMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := flatOracle{}
	m.eng.OS = osmodel.New(cfg.osConfig(), recordingTable{m.table, oracle}, m.alloc)
	m.eng.MMU = oracleMMU{MMU: m.eng.MMU, t: t, oracle: oracle}
	return m
}
