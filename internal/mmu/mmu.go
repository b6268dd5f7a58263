// Package mmu composes the TLB hierarchy, the page-walk machinery (radix
// page-walk caches or cuckoo walk caches), and the data-cache hierarchy
// into the address-translation front end the simulator drives.
//
// Two MMU variants exist, one per page-table family:
//
//   - Radix: sequential tree walk, accelerated by three page-walk caches
//     (PWCs) that skip upper levels (Table III: 3 × 32 entries, 4 cyc).
//   - HPT (ECPT or ME-HPT): parallel cuckoo-way probes, pruned by the CWCs;
//     the ME-HPT L2P access is overlapped with the CWC lookup (Section V-D)
//     so both variants see the same walk-latency structure.
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

// HPTPageTable is the interface both ecpt.PageTable and mehpt.PageTable
// satisfy (through pt.Hashed): the hashed-walk operations the MMU needs.
type HPTPageTable interface {
	//mehpt:hotpath
	Translate(va addr.VirtAddr) (pt.Translation, bool)
	// Walk is Translate additionally returning the physical address of the
	// probe slot holding the translation, with Translate's statistics
	// footprint: one probe sweep serves the TLB-miss path.
	//mehpt:hotpath
	Walk(va addr.VirtAddr) (pt.Translation, addr.PhysAddr, bool)
}

// HPT is the MMU for hashed page tables.
type HPT struct {
	TLB   *tlb.Hierarchy
	Mem   *cache.Hierarchy
	Table HPTPageTable
	CWC   *cwc.Walker
	stats Stats
}

// NewHPT wires an HPT MMU with Table III structures.
func NewHPT(table HPTPageTable, mem *cache.Hierarchy) *HPT {
	return &HPT{
		TLB:   tlb.NewTableIII(),
		Mem:   mem,
		Table: table,
		CWC:   cwc.New(),
	}
}

// Stats returns translation counters.
func (m *HPT) Stats() Stats { return m.stats }

// Translate resolves va, modelling the full latency of TLB lookup and, on a
// miss, the hashed page walk. TLB hits complete from the cached payload (the
// PPN stored at insert time, as hardware does); the page table is only
// probed on the walk path. TLB coherence — every resident entry resolves in
// the bound table with the same PPN — is the scrubber-enforced invariant
// that makes the payload trustworthy.
//mehpt:hotpath
func (m *HPT) Translate(va addr.VirtAddr) Result {
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

// walk performs the hashed page walk after a full TLB miss whose
// accumulated (parallel-probe) miss latency is tlbLat. Both the scalar
// Translate and the batch pipeline's TranslateWalk funnel through this,
// which keeps their results and stats bit-identical.
//
// CRC hash units run in parallel with the CWC lookup (both fixed-latency);
// the ME-HPT L2P access hides behind the CWC as well (Section V-D), so the
// pre-probe latency is max(hash, CWC) = CWC.
//mehpt:hotpath
func (m *HPT) walk(va addr.VirtAddr, tlbLat uint64) Result {
	m.stats.Walks++
	walk := uint64(hashfn.Latency)
	hit, cwtPA, cwcLat := m.CWC.Probe(va)
	if cwcLat > walk {
		walk = cwcLat
	}
	if !hit {
		// The CWT is compact metadata (8B per 2MB region) that lives in the
		// regular cache hierarchy and caches well, unlike page-table lines.
		walk += m.Mem.Access(cwtPA)
	}
	tr, probePA, ok := m.Table.Walk(va)
	if !ok {
		// The CWT indicates no translation at any size: fault without
		// probing the HPTs.
		m.stats.Faults++
		m.stats.WalkCycles += walk
		return Result{Cycles: tlbLat + walk, Fault: true}
	}
	walk += m.Mem.AccessPT(probePA)
	m.stats.WalkCycles += walk
	m.TLB.Insert(va, tr.Size, uint64(tr.PPN))
	return Result{
		PA:     addr.Translate(va, tr.PPN, tr.Size),
		Size:   tr.Size,
		Cycles: tlbLat + walk,
	}
}

// TranslateBatchPAs resolves the longest TLB-hit prefix of vas, software-
// pipelined through tlb.Hierarchy.LookupBatchPAs: resolved elements land in
// pas as physical addresses and their translation cycles are summed. It
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
//mehpt:hotpath
func (m *HPT) TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64) {
	return translateBatchPAs(m.TLB, &m.stats, vas, pas)
}

// TranslateWalk completes the pending element a TranslateBatchPAs call
// stopped at: its TLB probes have already run (and been counted) inside the
// batch, so only the page walk remains. missLat is the miss latency
// TranslateBatchPAs returned. Calling Translate instead would double-count
// the TLB probes.
//mehpt:hotpath
func (m *HPT) TranslateWalk(va addr.VirtAddr, missLat uint64) Result {
	return m.walk(va, missLat)
}

// translateBatchPAs is the TLB half of TranslateBatchPAs, shared by both MMU
// variants (the batch stops before any walk, so it never reaches the
// variant-specific machinery).
//mehpt:hotpath
func translateBatchPAs(t *tlb.Hierarchy, st *Stats, vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64) {
	if len(vas) > tlb.BatchWidth {
		vas = vas[:tlb.BatchWidth]
	}
	n, l1, latSum, missLat := t.LookupBatchPAs(vas, pas)
	st.Translations += uint64(n)
	st.L1Hits += l1
	st.L2Hits += uint64(n) - l1
	if n < len(vas) {
		st.Translations++ // element n entered translation; its walk is the caller's
	}
	return n, latSum, missLat
}

// Invalidate drops TLB and CWC state for va (unmap, page-size promotion).
func (m *HPT) Invalidate(va addr.VirtAddr, s addr.PageSize) {
	m.TLB.Invalidate(va, s)
	m.CWC.Invalidate(va)
}

// FlushTranslation empties the TLBs and CWCs — the per-address-space
// translation state a no-ASID context switch must drop. The data-cache
// hierarchy is untouched: it is physically indexed and belongs to the core,
// not the address space.
func (m *HPT) FlushTranslation() {
	m.TLB.Flush()
	m.CWC.Flush()
}

// Bind retargets this MMU shard at a new address space: table becomes the
// walk target and all translation caches are flushed. The multi-tenant
// scheduler calls this at every quantum boundary, so one MMU instance per
// core serves hundreds of processes.
func (m *HPT) Bind(table HPTPageTable) {
	m.Table = table
	m.FlushTranslation()
}

// pwc is one page-walk cache level: fully associative over VA prefixes.
type pwc struct {
	shift   uint
	entries int
	tags    []uint64
}

//mehpt:hotpath
func (c *pwc) lookup(va addr.VirtAddr) bool {
	tag := uint64(va) >> c.shift
	for i, t := range c.tags {
		if t == tag+1 {
			copy(c.tags[1:i+1], c.tags[:i])
			c.tags[0] = tag + 1
			return true
		}
	}
	return false
}

//mehpt:hotpath
func (c *pwc) insert(va addr.VirtAddr) {
	if c.lookup(va) {
		return
	}
	if len(c.tags) < c.entries {
		c.tags = append(c.tags, 0) //mehpt:allow hotalloc -- one-time warm-up growth up to c.entries, amortized to zero
	}
	copy(c.tags[1:], c.tags)
	c.tags[0] = uint64(va)>>c.shift + 1
}

// pwcLatency is the PWC round trip (Table III: 4 cycles).
const pwcLatency = 4

// Radix is the MMU for the radix-tree baseline.
type Radix struct {
	TLB   *tlb.Hierarchy
	Mem   *cache.Hierarchy
	Table *radix.PageTable
	// pwcs[0] caches PMD entries (skip to PTE), [1] PUD entries (skip to
	// PMD), [2] PGD entries (skip to PUD).
	pwcs  [3]pwc
	stats Stats
	// walkBuf is the scratch buffer AppendWalkAddrs fills on every TLB
	// miss; a walk touches at most MaxLevels entries, so the steady-state
	// walk path never allocates.
	walkBuf [radix.MaxLevels]addr.PhysAddr
}

// NewRadix wires a radix MMU with Table III structures: 3 PWC levels of 32
// entries each.
func NewRadix(table *radix.PageTable, mem *cache.Hierarchy) *Radix {
	m := &Radix{TLB: tlb.NewTableIII(), Mem: mem, Table: table}
	m.pwcs[0] = pwc{shift: 21, entries: 32} // PMD entry: covers 2MB
	m.pwcs[1] = pwc{shift: 30, entries: 32} // PUD entry: covers 1GB
	m.pwcs[2] = pwc{shift: 39, entries: 32} // PGD entry: covers 512GB
	return m
}

// Stats returns translation counters.
func (m *Radix) Stats() Stats { return m.stats }

// Translate resolves va through the TLBs and, on a miss, a sequential tree
// walk whose upper levels the PWCs can skip. As in the HPT variant, TLB
// hits complete from the cached PPN payload; only walks touch the tree.
//mehpt:hotpath
func (m *Radix) Translate(va addr.VirtAddr) Result {
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

// walk performs the radix tree walk after a full TLB miss with accumulated
// miss latency tlbLat; shared verbatim by Translate and TranslateWalk.
//mehpt:hotpath
func (m *Radix) walk(va addr.VirtAddr, tlbLat uint64) Result {
	m.stats.Walks++
	pas, tr, ok := m.Table.AppendWalkAddrs(m.walkBuf[:0], va)
	// The PWCs are probed in parallel: skip the deepest cached prefix.
	skip := 0
	switch {
	case m.pwcs[0].lookup(va):
		skip = 3 // PGD, PUD, PMD entries cached: only the PTE access remains
	case m.pwcs[1].lookup(va):
		skip = 2
	case m.pwcs[2].lookup(va):
		skip = 1
	}
	if skip > len(pas)-1 {
		skip = len(pas) - 1 // always perform at least the final access
	}
	walk := uint64(pwcLatency)
	for _, pa := range pas[skip:] {
		walk += m.Mem.AccessPT(pa) // sequential: latencies add up
	}
	m.stats.WalkCycles += walk
	if !ok {
		m.stats.Faults++
		return Result{Cycles: tlbLat + walk, Fault: true}
	}
	// Refill the PWCs with the prefixes this walk resolved.
	if len(pas) >= 2 {
		m.pwcs[2].insert(va)
	}
	if len(pas) >= 3 {
		m.pwcs[1].insert(va)
	}
	if len(pas) >= 4 {
		m.pwcs[0].insert(va)
	}
	m.TLB.Insert(va, tr.Size, uint64(tr.PPN))
	return Result{
		PA:     addr.Translate(va, tr.PPN, tr.Size),
		Size:   tr.Size,
		Cycles: tlbLat + walk,
	}
}

// TranslateBatchPAs resolves the longest TLB-hit prefix of vas; see
// HPT.TranslateBatchPAs for the contract.
//mehpt:hotpath
func (m *Radix) TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64) {
	return translateBatchPAs(m.TLB, &m.stats, vas, pas)
}

// TranslateWalk completes the pending element a TranslateBatchPAs call
// stopped at; see HPT.TranslateWalk for the contract.
//mehpt:hotpath
func (m *Radix) TranslateWalk(va addr.VirtAddr, missLat uint64) Result {
	return m.walk(va, missLat)
}

// Invalidate drops TLB state for va.
func (m *Radix) Invalidate(va addr.VirtAddr, s addr.PageSize) {
	m.TLB.Invalidate(va, s)
}

// FlushTranslation empties the TLBs and PWCs (no-ASID context switch); the
// physically-indexed data caches stay with the core.
func (m *Radix) FlushTranslation() {
	m.TLB.Flush()
	for i := range m.pwcs {
		m.pwcs[i].tags = m.pwcs[i].tags[:0]
	}
}

// Bind retargets this MMU shard at a new address space, flushing all
// translation caches.
func (m *Radix) Bind(table *radix.PageTable) {
	m.Table = table
	m.FlushTranslation()
}

// MMU is the interface the simulator's access loop drives; both variants
// satisfy it. Translate is the scalar path; TranslateBatchPAs and
// TranslateWalk are the batched pipeline (see HPT.TranslateBatchPAs for
// their contract).
type MMU interface {
	//mehpt:hotpath
	Translate(va addr.VirtAddr) Result
	//mehpt:hotpath
	TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64)
	//mehpt:hotpath
	TranslateWalk(va addr.VirtAddr, missLat uint64) Result
	Invalidate(va addr.VirtAddr, s addr.PageSize)
	Stats() Stats
}

// BatchWidth is the translation pipeline width; batch callers size their
// buffers to it. Re-exported from the TLB layer, which anchors the value.
const BatchWidth = tlb.BatchWidth
