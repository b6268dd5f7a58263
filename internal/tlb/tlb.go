// Package tlb models the two-level, per-page-size data TLB hierarchy of
// Table III: small fast L1 DTLBs (one per page size) backed by larger L2
// DTLBs, all set-associative with LRU replacement.
package tlb

import (
	"repro/internal/addr"
)

// Config describes one TLB structure.
type Config struct {
	Entries int
	Ways    int
	Latency uint64 // round-trip cycles
}

// Stats counts TLB behaviour.
type Stats struct {
	Hits, Misses uint64
}

// TLB is one set-associative translation lookaside buffer keyed by VPN.
//
// The tag store is a single flat set-major array (sets × ways), MRU first
// within each set, with 0 marking an empty slot (tags are stored as VPN+1).
// Empty slots only ever appear as a suffix of a set — inserts push at the
// front and invalidates compact leftward — so probes stop at the first
// zero. The flat layout keeps the steady-state lookup path free of heap
// allocation and pointer chasing; the per-set []uint64 slices it replaces
// were the TLB's entire GC footprint.
//
// Each slot also carries a 64-bit payload (the PPN of the cached
// translation), moved in lockstep with its tag. A real TLB stores the frame
// number next to the tag; modelling that lets a hit return the completed
// translation without re-probing the page table. Payloads are timing- and
// stats-invisible: only the tag array decides hit/miss, LRU, and eviction.
type TLB struct {
	cfg     Config
	sets    uint64
	setMask uint64 // sets-1 when sets is a power of two, else 0
	ways    int
	tags    []uint64 // sets × ways, set-major; 0 = empty
	pays    []uint64 // payload per slot, parallel to tags
	stats   Stats
}

// New creates a TLB. A Ways value of 0 or ≥ Entries makes it fully
// associative.
func New(cfg Config) *TLB {
	if cfg.Ways <= 0 || cfg.Ways > cfg.Entries {
		cfg.Ways = cfg.Entries
	}
	sets := uint64(cfg.Entries / cfg.Ways)
	if sets == 0 {
		sets = 1
	}
	t := &TLB{cfg: cfg, sets: sets, ways: cfg.Ways,
		tags: make([]uint64, sets*uint64(cfg.Ways)),
		pays: make([]uint64, sets*uint64(cfg.Ways))}
	if sets&(sets-1) == 0 {
		t.setMask = sets - 1
	}
	return t
}

// setBase returns the flat-array offset of vpn's set. All Table III L1
// geometries have power-of-two set counts, so the common case is a mask;
// the L2 4K/2M structures (1024/12 = 85 sets) take the modulo path.
func (t *TLB) setBase(vpn addr.VPN) uint64 {
	if t.setMask != 0 || t.sets == 1 {
		return (uint64(vpn) & t.setMask) * uint64(t.ways)
	}
	return (uint64(vpn) % t.sets) * uint64(t.ways)
}

// promote2 moves slot i of a tag/payload set pair to the MRU front. The
// explicit backward shift replaces copy(): promotion distances are tiny
// (usually one slot), where two memmove calls cost more than the moves.
//
//go:inline
func promote2(set, pays []uint64, i int) {
	tag, pay := set[i], pays[i]
	for ; i > 0; i-- {
		set[i] = set[i-1]
		pays[i] = pays[i-1]
	}
	set[0], pays[0] = tag, pay
}

// Lookup probes for vpn, updating LRU on a hit and returning the slot's
// payload.
//
//mehpt:hotpath
func (t *TLB) Lookup(vpn addr.VPN) (uint64, bool) {
	base := t.setBase(vpn)
	set := t.tags[base : base+uint64(t.ways)]
	want := uint64(vpn) + 1
	for i, tag := range set {
		if tag == 0 {
			break // empties are a suffix: the rest of the set is empty
		}
		if tag == want {
			pays := t.pays[base : base+uint64(t.ways)]
			pay := pays[i]
			promote2(set, pays, i)
			t.stats.Hits++
			return pay, true
		}
	}
	t.stats.Misses++
	return 0, false
}

// Insert installs vpn with its payload, evicting the set's LRU entry if
// needed. Re-inserting a resident vpn refreshes its payload and MRU slot.
//
//mehpt:hotpath
func (t *TLB) Insert(vpn addr.VPN, pay uint64) {
	base := t.setBase(vpn)
	set := t.tags[base : base+uint64(t.ways)]
	pays := t.pays[base : base+uint64(t.ways)]
	want := uint64(vpn) + 1
	n := len(set)
	for i, tag := range set {
		if tag == 0 {
			n = i
			break
		}
		if tag == want {
			pays[i] = pay
			promote2(set, pays, i)
			return
		}
	}
	if n == len(set) {
		n-- // set full: shifting right drops the LRU tail
	}
	for ; n > 0; n-- {
		set[n] = set[n-1]
		pays[n] = pays[n-1]
	}
	set[0], pays[0] = want, pay
}

// Invalidate removes vpn if present (TLB shootdown on unmap).
func (t *TLB) Invalidate(vpn addr.VPN) {
	base := t.setBase(vpn)
	set := t.tags[base : base+uint64(t.ways)]
	want := uint64(vpn) + 1
	for i, tag := range set {
		if tag == 0 {
			return
		}
		if tag == want {
			pays := t.pays[base : base+uint64(t.ways)]
			copy(set[i:], set[i+1:])
			set[len(set)-1] = 0
			copy(pays[i:], pays[i+1:])
			pays[len(pays)-1] = 0
			return
		}
	}
}

// Flush empties the TLB (context switch without ASIDs). The tag array is
// cleared in place — flushing must not churn the GC, since the OS model
// flushes on every context-switch event.
func (t *TLB) Flush() {
	clear(t.tags)
	clear(t.pays)
}

// Latency returns the hit latency.
func (t *TLB) Latency() uint64 { return t.cfg.Latency }

// Stats returns hit/miss counters.
func (t *TLB) Stats() Stats { return t.stats }

// BatchWidth is the pipeline width of the batched translation path: the
// sim loop hands the MMU up to this many accesses per call, and every
// batched stage (TLB, table probes, cache) sizes its scratch to it. 64 is
// wide enough to amortize per-call dispatch to well under a cycle per
// access while keeping per-stage scratch (a few 64-entry arrays) inside L1.
const BatchWidth = 64

// Hierarchy is the full per-page-size two-level DTLB stack.
type Hierarchy struct {
	l1 [addr.NumPageSizes]*TLB
	l2 [addr.NumPageSizes]*TLB
}

// NewTableIII builds the paper's DTLB configuration: L1 64e/4w (4KB),
// 32e/4w (2MB), 4e (1GB) at 2 cycles; L2 1024e/12w (4KB), 1024e/12w (2MB),
// 16e/4w (1GB) at 12 cycles.
func NewTableIII() *Hierarchy {
	h := &Hierarchy{}
	h.l1[addr.Page4K] = New(Config{Entries: 64, Ways: 4, Latency: 2})
	h.l1[addr.Page2M] = New(Config{Entries: 32, Ways: 4, Latency: 2})
	h.l1[addr.Page1G] = New(Config{Entries: 4, Ways: 0, Latency: 2})
	h.l2[addr.Page4K] = New(Config{Entries: 1024, Ways: 12, Latency: 12})
	h.l2[addr.Page2M] = New(Config{Entries: 1024, Ways: 12, Latency: 12})
	h.l2[addr.Page1G] = New(Config{Entries: 16, Ways: 4, Latency: 12})
	return h
}

// Result describes where a TLB lookup was satisfied.
type Result int

// Lookup outcomes.
const (
	MissAll Result = iota
	HitL1
	HitL2
)

// Lookup probes L1 then L2 for va at page size s, returning the outcome,
// the hit payload, and the lookup latency. An L2 hit refills L1.
//
//mehpt:hotpath
func (h *Hierarchy) Lookup(va addr.VirtAddr, s addr.PageSize) (Result, uint64, uint64) {
	vpn := va.PageNumber(s)
	if pay, ok := h.l1[s].Lookup(vpn); ok {
		return HitL1, pay, h.l1[s].Latency()
	}
	if pay, ok := h.l2[s].Lookup(vpn); ok {
		h.l1[s].Insert(vpn, pay)
		return HitL2, pay, h.l1[s].Latency() + h.l2[s].Latency()
	}
	return MissAll, 0, h.l1[s].Latency() + h.l2[s].Latency()
}

// LookupVA probes the hierarchy for va across all page sizes in ascending
// order — exactly the MMU's scalar probe loop, fused into one call. On a
// hit it returns the level, winning page size, payload, and that size's hit
// latency; on a full miss it returns MissAll with the maximum per-size miss
// latency (the parallel-probe timing model the scalar path uses).
//
//mehpt:hotpath
func (h *Hierarchy) LookupVA(va addr.VirtAddr) (Result, addr.PageSize, uint64, uint64) {
	vpn := va.PageNumber(addr.Page4K)
	if pay, ok := h.l1[addr.Page4K].Lookup(vpn); ok {
		return HitL1, addr.Page4K, pay, h.l1[addr.Page4K].Latency()
	}
	return h.lookupVAFrom4KMiss(va)
}

// lookupVAFrom4KMiss finishes LookupVA after the 4K L1 probe has already
// missed (and been counted): the 4K L2 probe, then the larger page sizes.
// Both the scalar path and the batch pipeline's slow lane funnel through
// this, which is what keeps their results and stats bit-identical.
//
//mehpt:hotpath
func (h *Hierarchy) lookupVAFrom4KMiss(va addr.VirtAddr) (Result, addr.PageSize, uint64, uint64) {
	vpn := va.PageNumber(addr.Page4K)
	l14 := h.l1[addr.Page4K]
	l24 := h.l2[addr.Page4K]
	if pay, ok := l24.Lookup(vpn); ok {
		l14.Insert(vpn, pay)
		return HitL2, addr.Page4K, pay, l14.Latency() + l24.Latency()
	}
	miss := l14.Latency() + l24.Latency()
	for _, s := range addr.Sizes()[1:] {
		r, pay, lat := h.Lookup(va, s)
		if r != MissAll {
			return r, s, pay, lat
		}
		if miss < lat {
			miss = lat
		}
	}
	return MissAll, 0, 0, miss
}

// lookupStride is how many elements LookupBatchPAs indexes ahead of its tag
// compares: enough for the set loads to overlap, few enough that a full
// miss early in a batch wastes little index work on elements a later call
// will index again.
const lookupStride = 8

// LookupBatchPAs resolves the longest all-hit prefix of vas into physical
// addresses, software-pipelined: set indices for the common-case probe (L1,
// 4K pages) are computed lookupStride elements ahead, then tags are compared
// in a second pass so the set loads overlap instead of serializing behind
// each probe. Elements that miss the 4K L1 fall through to the same per-size
// continuation the scalar LookupVA uses, so probe order, LRU updates, and
// counters match len(vas) LookupVA calls.
//
// pas[i] receives the translated address of each resolved element; the
// per-element metadata collapses into aggregates — the L1-hit count and the
// summed lookup latency. It stops at the first element that misses every
// structure: that element's probes have already been performed and counted,
// so the caller must complete it with the page walk directly, NOT by calling
// LookupVA again. Returns the resolved count n, the L1-hit count among them,
// the summed latency, and (when n < len(vas)) element n's full-miss latency.
// At most BatchWidth elements are consumed per call.
//
//mehpt:hotpath
func (h *Hierarchy) LookupBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64, uint64) {
	if len(vas) > BatchWidth {
		vas = vas[:BatchWidth]
	}
	t1 := h.l1[addr.Page4K]
	ways := uint64(t1.ways)
	lat1 := t1.cfg.Latency
	// Hoisting the tag/payload arrays into locals keeps their headers in
	// registers: the compiler cannot prove the pas stores don't alias them.
	tags, pays := t1.tags, t1.pays
	// hits1 counts fast-lane 4K L1 hits (flushed to t1's counter once);
	// l1Slow counts slow-lane hits that still landed in an L1 structure
	// (larger page sizes) — the returned L1 total needs both.
	var hits1, l1Slow, latSum uint64
	for c := 0; c < len(vas); c += lookupStride {
		chunk := vas[c:min(c+lookupStride, len(vas))]
		var baseBuf, wantBuf [lookupStride]uint64
		for i, va := range chunk {
			vpn := va.PageNumber(addr.Page4K)
			baseBuf[i] = t1.setBase(vpn)
			wantBuf[i] = uint64(vpn) + 1
		}
		for i, va := range chunk {
			base, want := baseBuf[i], wantBuf[i]
			set := tags[base : base+ways]
			hit := -1
			for j, tag := range set {
				if tag == 0 {
					break
				}
				if tag == want {
					hit = j
					break
				}
			}
			if hit >= 0 {
				pp := pays[base : base+ways]
				pay := pp[hit]
				promote2(set, pp, hit)
				hits1++
				pas[c+i] = addr.Translate(va, addr.PPN(pay), addr.Page4K)
				continue
			}
			// Slow lane: count the 4K L1 miss exactly as TLB.Lookup would,
			// then run the scalar continuation for the remaining structures.
			t1.stats.Misses++
			r, s, pay, lat := h.lookupVAFrom4KMiss(va)
			if r == MissAll {
				t1.stats.Hits += hits1
				return c + i, hits1 + l1Slow, latSum + hits1*lat1, lat
			}
			if r == HitL1 {
				l1Slow++
			}
			latSum += lat
			pas[c+i] = addr.Translate(va, addr.PPN(pay), s)
		}
	}
	t1.stats.Hits += hits1
	return len(vas), hits1 + l1Slow, latSum + hits1*lat1, 0
}

// Insert installs a completed translation (payload pay, the PPN) into both
// levels.
//
//mehpt:hotpath
func (h *Hierarchy) Insert(va addr.VirtAddr, s addr.PageSize, pay uint64) {
	vpn := va.PageNumber(s)
	h.l1[s].Insert(vpn, pay)
	h.l2[s].Insert(vpn, pay)
}

// Invalidate removes a translation from both levels (unmap shootdown).
func (h *Hierarchy) Invalidate(va addr.VirtAddr, s addr.PageSize) {
	vpn := va.PageNumber(s)
	h.l1[s].Invalidate(vpn)
	h.l2[s].Invalidate(vpn)
}

// Flush empties every TLB in the hierarchy, all levels and page sizes — a
// full context-switch flush in the no-ASID model. Like TLB.Flush it clears
// in place, so per-quantum flushing in the multi-tenant scheduler does not
// churn the GC.
func (h *Hierarchy) Flush() {
	for s := range h.l1 {
		h.l1[s].Flush()
		h.l2[s].Flush()
	}
}

// L1 and L2 expose the underlying structures for stats inspection.
func (h *Hierarchy) L1(s addr.PageSize) *TLB { return h.l1[s] }

// L2 returns the second-level TLB for page size s.
func (h *Hierarchy) L2(s addr.PageSize) *TLB { return h.l2[s] }
