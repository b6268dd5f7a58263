// Package mmu composes the TLB hierarchy, a page walker, and the data-cache
// hierarchy into the address-translation front end the simulator drives.
//
// There is one MMU. Its TLBs, batch pipeline, statistics, and coherence
// operations are shared by every page-table family; only what happens after
// a full TLB miss differs, and that is an unexported per-family walker:
//
//   - the radix walker: a sequential tree walk, accelerated by three
//     page-walk caches (PWCs) that skip upper levels (Table III: 3 × 32
//     entries, 4 cyc);
//   - the hashed walker (ECPT or ME-HPT): parallel cuckoo-way probes,
//     pruned by the CWCs; the ME-HPT L2P access is overlapped with the CWC
//     lookup (Section V-D), so both hashed organizations see the same
//     walk-latency structure.
//
// NewRadix and NewHPT pick the walker; a new organization is one more
// walker plus its table.
//
// An MMU may also walk one address window through a second, machine-wide
// hashed table (BindShared): the multi-tenant machine's shared segment.
// That window has its own hashed walker and CWC, so walking it leaves the
// bound table's walk caches untouched; Bind, FlushTranslation and
// Invalidate cover it as they do the bound table's.
package mmu

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/cwc"
	"repro/internal/hashfn"
	"repro/internal/pt"
	"repro/internal/radix"
	"repro/internal/tlb"
)

// Result is the outcome of one translation.
type Result struct {
	PA     addr.PhysAddr
	Size   addr.PageSize
	Cycles uint64
	Fault  bool // no translation: the OS must handle a page fault
}

// Stats aggregates translation behaviour.
type Stats struct {
	Translations uint64
	L1Hits       uint64
	L2Hits       uint64
	Walks        uint64
	WalkCycles   uint64
	Faults       uint64
}

// Table is a page table an MMU can be bound to: a *radix.PageTable for a
// radix MMU, an HPTPageTable for a hashed one.
type Table interface {
	Translate(va addr.VirtAddr) (pt.Translation, bool)
}

// HPTPageTable is the interface both ecpt.PageTable and mehpt.PageTable
// satisfy (through pt.Hashed): the hashed-walk operations the MMU needs.
type HPTPageTable interface {
	Translate(va addr.VirtAddr) (pt.Translation, bool)
	// Walk is Translate additionally returning the physical address of the
	// probe slot holding the translation, with Translate's statistics
	// footprint: one probe sweep serves the TLB-miss path.
	Walk(va addr.VirtAddr) (pt.Translation, addr.PhysAddr, bool)
}

// walker is the per-family half of the MMU: the page walk after a full TLB
// miss and the walk caches that speed it up.
type walker interface {
	// walk resolves va in the bound table, pricing its memory accesses
	// through mem, and returns the translation, the walk latency, and
	// whether a translation exists.
	walk(va addr.VirtAddr, mem *cache.Hierarchy) (pt.Translation, uint64, bool)
	// bind makes table the walk target; it must be of the walker's family.
	bind(table Table)
	// invalidate drops walk-cache state covering va.
	invalidate(va addr.VirtAddr)
	// flush empties the walk caches.
	flush()
}

// MMU is the translation front end: Table III TLBs, then on a full miss the
// walker's page walk, whose accesses go through the data-cache hierarchy.
type MMU struct {
	TLB    *tlb.Hierarchy
	Mem    *cache.Hierarchy
	table  Table // nil until bound
	walker walker
	// shared walks [sharedLo, sharedHi) instead of walker; nil until
	// BindShared.
	shared             *hashedWalker
	sharedLo, sharedHi addr.VirtAddr
	stats              Stats
}

// NewHPT wires an MMU with Table III structures over a hashed page table.
// A nil table leaves the MMU unbound until Bind.
func NewHPT(table HPTPageTable, mem *cache.Hierarchy) *MMU {
	m := &MMU{TLB: tlb.NewTableIII(), Mem: mem, walker: &hashedWalker{cwc: *cwc.New()}}
	if table != nil {
		m.Bind(table)
	}
	return m
}

// NewRadix wires an MMU with Table III structures over a radix tree: 3 PWC
// levels of 32 entries each. A nil table leaves the MMU unbound until Bind.
func NewRadix(table *radix.PageTable, mem *cache.Hierarchy) *MMU {
	w := &radixWalker{}
	for i := range w.pwcs {
		w.pwcs[i] = cwc.NewLRU(32)
	}
	m := &MMU{TLB: tlb.NewTableIII(), Mem: mem, walker: w}
	if table != nil {
		m.Bind(table)
	}
	return m
}

// Stats returns translation counters.
func (m *MMU) Stats() Stats { return m.stats }

// RestoreStats reinstates translation counters captured by Stats. The
// checkpoint serializes only the counters: the TLBs and walk caches are
// flushed at every quantum boundary by Bind, so a round-boundary snapshot
// never needs their contents.
func (m *MMU) RestoreStats(s Stats) { m.stats = s }

// Table returns the bound page table, or nil if the MMU was never bound.
func (m *MMU) Table() Table { return m.table }

// Translate resolves va, modelling the full latency of TLB lookup and, on a
// miss, the page walk. TLB hits complete from the cached payload (the PPN
// stored at insert time, as hardware does); the page table is only walked
// on a miss. TLB coherence — every resident entry resolves in the bound
// table with the same PPN — is the scrubber-enforced invariant that makes
// the payload trustworthy.
func (m *MMU) Translate(va addr.VirtAddr) Result {
	m.stats.Translations++
	r, s, pay, lat := m.TLB.LookupVA(va)
	switch r {
	case tlb.HitL1:
		m.stats.L1Hits++
		return Result{PA: addr.Translate(va, addr.PPN(pay), s), Size: s, Cycles: lat}
	case tlb.HitL2:
		m.stats.L2Hits++
		return Result{PA: addr.Translate(va, addr.PPN(pay), s), Size: s, Cycles: lat}
	}
	return m.walk(va, lat)
}

// walk performs the page walk after a full TLB miss whose accumulated
// (parallel-probe) miss latency is tlbLat, and fills the TLB on success.
// Both the scalar Translate and the batch pipeline's TranslateWalk funnel
// through this, which keeps their results and stats bit-identical.
func (m *MMU) walk(va addr.VirtAddr, tlbLat uint64) Result {
	m.stats.Walks++
	tr, walk, ok := m.walkerFor(va).walk(va, m.Mem)
	m.stats.WalkCycles += walk
	if !ok {
		m.stats.Faults++
		return Result{Cycles: tlbLat + walk, Fault: true}
	}
	m.TLB.Insert(va, tr.Size, uint64(tr.PPN))
	return Result{
		PA:     addr.Translate(va, tr.PPN, tr.Size),
		Size:   tr.Size,
		Cycles: tlbLat + walk,
	}
}

// TranslateBatchPAs resolves the longest TLB-hit prefix of vas through
// tlb.Hierarchy.LookupBatchPAs: resolved elements land in pas as physical
// addresses and their translation cycles are summed. It
// returns the resolved count n, that cycle sum, and — when n < len(vas) —
// element n's full-miss latency missLat. State updates and stats are
// bit-identical to n scalar Translate calls.
//
// When n < len(vas), element n missed every TLB: its probes have been
// performed and counted, and the caller must finish it with
// TranslateWalk(vas[n], missLat) — handling a fault exactly as it would on a
// scalar Translate — before resuming the batch at n+1. A page walk ends the
// batch because it touches the data-cache hierarchy, whose state the
// caller's pending data accesses also touch; everything before it commutes
// (TLB hits touch only TLB state). At most BatchWidth elements are consumed
// per call.
func (m *MMU) TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64) {
	if len(vas) > tlb.BatchWidth {
		vas = vas[:tlb.BatchWidth]
	}
	n, l1, latSum, missLat := m.TLB.LookupBatchPAs(vas, pas)
	m.stats.Translations += uint64(n)
	m.stats.L1Hits += l1
	m.stats.L2Hits += uint64(n) - l1
	if n < len(vas) {
		m.stats.Translations++ // element n entered translation; its walk is the caller's
	}
	return n, latSum, missLat
}

// TranslateWalk completes the pending element a TranslateBatchPAs call
// stopped at: its TLB probes have already run (and been counted) inside the
// batch, so only the page walk remains. missLat is the miss latency
// TranslateBatchPAs returned. Calling Translate instead would double-count
// the TLB probes.
func (m *MMU) TranslateWalk(va addr.VirtAddr, missLat uint64) Result {
	return m.walk(va, missLat)
}

// Invalidate drops TLB and walk-cache state for va (unmap, page-size
// promotion).
func (m *MMU) Invalidate(va addr.VirtAddr, s addr.PageSize) {
	m.TLB.Invalidate(va, s)
	m.walkerFor(va).invalidate(va)
}

// FlushTranslation empties the TLBs and walk caches — the per-address-space
// translation state a no-ASID context switch must drop. The data-cache
// hierarchy is untouched: it is physically indexed and belongs to the core,
// not the address space.
func (m *MMU) FlushTranslation() {
	m.TLB.Flush()
	m.walker.flush()
	if m.shared != nil {
		m.shared.flush()
	}
}

// Bind retargets this MMU at a new address space: table, which must be of
// the family the MMU was built for, becomes the walk target and all
// translation caches are flushed. The multi-tenant scheduler calls this at
// every quantum boundary, so one MMU instance per core serves hundreds of
// processes.
func (m *MMU) Bind(table Table) {
	m.table = table
	m.walker.bind(table)
	m.FlushTranslation()
}

// BindShared makes table the walk target for every address in [lo, hi),
// in place of the bound table, through a hashed walker with its own CWC.
// The window survives Bind; its TLB entries and CWC do not. The multi-
// tenant machine binds its shared segment once per core at open.
func (m *MMU) BindShared(lo, hi addr.VirtAddr, table HPTPageTable) {
	m.shared = &hashedWalker{table: table, cwc: *cwc.New()}
	m.sharedLo, m.sharedHi = lo, hi
	m.FlushTranslation()
}

// walkerFor returns the walker that resolves va: the shared window's, or
// the bound table's.
func (m *MMU) walkerFor(va addr.VirtAddr) walker {
	if m.shared != nil && va >= m.sharedLo && va < m.sharedHi {
		return m.shared
	}
	return m.walker
}

// hashedWalker walks a hashed page table: one targeted probe, located by
// the CWCs.
type hashedWalker struct {
	table HPTPageTable
	cwc   cwc.Walker
}

// walk performs the hashed page walk. CRC hash units run in parallel with
// the CWC lookup (both fixed-latency); the ME-HPT L2P access hides behind
// the CWC as well (Section V-D), so the pre-probe latency is
// max(hash, CWC) = CWC.
func (w *hashedWalker) walk(va addr.VirtAddr, mem *cache.Hierarchy) (pt.Translation, uint64, bool) {
	walk := uint64(hashfn.Latency)
	hit, cwtPA, cwcLat := w.cwc.Probe(va)
	if cwcLat > walk {
		walk = cwcLat
	}
	if !hit {
		// The CWT is compact metadata (8B per 2MB region) that lives in the
		// regular cache hierarchy and caches well, unlike page-table lines.
		walk += mem.Access(cwtPA)
	}
	tr, probePA, ok := w.table.Walk(va)
	if !ok {
		// The CWT indicates no translation at any size: fault without
		// probing the HPTs.
		return tr, walk, false
	}
	return tr, walk + mem.AccessPT(probePA), true
}

func (w *hashedWalker) bind(table Table)            { w.table = table.(HPTPageTable) }
func (w *hashedWalker) invalidate(va addr.VirtAddr) { w.cwc.Invalidate(va) }
func (w *hashedWalker) flush()                      { w.cwc.Flush() }

// pwcLatency is the PWC round trip (Table III: 4 cycles).
const pwcLatency = 4

// pwcShift is the VA prefix each PWC level caches: pwcs[0] holds PMD
// entries (a 2MB prefix; skip to the PTE), [1] PUD entries (1GB; skip to
// the PMD), [2] PGD entries (512GB; skip to the PUD).
var pwcShift = [3]uint{21, 30, 39}

// radixWalker walks a radix tree, skipping the upper levels the PWCs cache.
type radixWalker struct {
	table *radix.PageTable
	pwcs  [3]cwc.LRU
	// buf is the scratch buffer AppendWalkAddrs fills on every walk; a walk
	// touches at most MaxLevels entries, so the walk never allocates.
	buf [radix.MaxLevels]addr.PhysAddr
}

// walk performs the sequential tree walk.
func (w *radixWalker) walk(va addr.VirtAddr, mem *cache.Hierarchy) (pt.Translation, uint64, bool) {
	pas, tr, ok := w.table.AppendWalkAddrs(w.buf[:0], va)
	// The PWCs are probed in parallel: skip the deepest cached prefix (a
	// pwcs[0] hit leaves only the PTE access).
	skip := 0
	for lvl := range w.pwcs {
		if w.pwcs[lvl].Lookup(uint64(va) >> pwcShift[lvl]) {
			skip = 3 - lvl
			break
		}
	}
	if skip > len(pas)-1 {
		skip = len(pas) - 1 // always perform at least the final access
	}
	walk := uint64(pwcLatency)
	for _, pa := range pas[skip:] {
		walk += mem.AccessPT(pa) // sequential: latencies add up
	}
	if ok {
		// Refill the PWCs with the prefixes this walk resolved: pwcs[lvl]
		// once the walk read at least 4-lvl entries.
		for lvl := 2; lvl >= 0 && len(pas) >= 4-lvl; lvl-- {
			w.pwcs[lvl].Insert(uint64(va) >> pwcShift[lvl])
		}
	}
	return tr, walk, ok
}

func (w *radixWalker) bind(table Table)         { w.table = table.(*radix.PageTable) }
func (w *radixWalker) invalidate(addr.VirtAddr) {}

func (w *radixWalker) flush() {
	for i := range w.pwcs {
		w.pwcs[i].Flush()
	}
}

// BatchWidth is the translation pipeline width; batch callers size their
// buffers to it. Re-exported from the TLB layer, which anchors the value.
const BatchWidth = tlb.BatchWidth
