// Package tlb models the two-level, per-page-size data TLB hierarchy of
// Table III: small fast L1 DTLBs (one per page size) backed by larger L2
// DTLBs, all set-associative with LRU replacement.
package tlb

import (
	"math/bits"

	"repro/internal/addr"
)

// Config describes one TLB structure.
type Config struct {
	Entries int
	Ways    int
	Latency uint64 // round-trip cycles
}

// TLB is one set-associative translation lookaside buffer keyed by VPN.
//
// The tag store is a single flat set-major array (sets × ways), with 0
// marking an empty slot (tags are stored as VPN+1). Each set is a ring in
// LRU order: heads[set] names its MRU slot and recency runs forward from
// there, wrapping at the set's end. Empty slots only ever form a suffix of
// that order: inserts step the head back one slot onto the LRU victim or
// an empty slot, and invalidates close their gap. The flat layout keeps
// the steady-state lookup path free of heap allocation and pointer
// chasing.
//
// Each slot also carries a 64-bit payload (the PPN of the cached
// translation), moved in lockstep with its tag. A real TLB stores the frame
// number next to the tag; modelling that lets a hit return the completed
// translation without re-probing the page table. Payloads are
// timing-invisible: only the tag array decides hit/miss, LRU, and eviction.
type TLB struct {
	cfg     Config
	sets    uint64
	setMask uint64 // sets-1 when sets is a power of two, else 0
	setMul  uint64 // ⌈2^64/sets⌉, the multiplier setOf reduces by
	mulMax  uint64 // VPNs below this reduce exactly by setMul
	ways    int
	tags    []uint64 // sets × ways, set-major; 0 = empty
	pays    []uint64 // payload per slot, parallel to tags in the same allocation
	heads   []uint32 // MRU slot of each set
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
	n := sets * uint64(cfg.Ways)
	slots := make([]uint64, 2*n)
	t := &TLB{cfg: cfg, sets: sets, ways: cfg.Ways,
		tags: slots[:n:n], pays: slots[n:], heads: make([]uint32, sets)}
	if sets&(sets-1) == 0 {
		t.setMask = sets - 1
	}
	t.setMul = ^uint64(0)/sets + 1
	t.mulMax = 1 << (64 - bits.Len64(sets))
	return t
}

// setOf returns the index of vpn's set, vpn mod sets. All Table III L1
// geometries have power-of-two set counts, so the common case is a mask.
// The L2 4K/2M structures (1024/12 = 85 sets) take Lemire's multiply-based
// remainder instead of a 64-bit DIV: the low word of setMul·vpn is the
// fractional part of vpn/sets scaled by 2^64, and the high word of that
// times sets is the remainder. It is exact while vpn < 2^(64−len(sets)),
// which holds for every page number of a 57-bit VA; larger VPNs fall back
// to %.
func (t *TLB) setOf(vpn addr.VPN) uint64 {
	if t.setMask != 0 || t.sets == 1 {
		return uint64(vpn) & t.setMask
	}
	if uint64(vpn) < t.mulMax {
		hi, _ := bits.Mul64(t.setMul*uint64(vpn), t.sets)
		return hi
	}
	return uint64(vpn) % t.sets
}

// ring returns the tag and payload slots of set si and its MRU slot.
func (t *TLB) ring(si uint64) (tags, pays []uint64, h int) {
	w := uint64(t.ways)
	return t.tags[si*w : si*w+w], t.pays[si*w : si*w+w], int(t.heads[si])
}

// find returns the slot holding want in a ring set whose MRU slot is h, or
// -1. Most hits land on the MRU slot; past it the scan runs in slot order,
// so its loads do not wait on the head and a miss in a full set runs a
// fixed trip count.
func find(tags []uint64, h int, want uint64) int {
	if tags[h] == want {
		return h
	}
	for p, tag := range tags {
		if tag == want {
			return p
		}
	}
	return -1
}

// promote moves slot p of a ring set to its MRU slot h, shifting the
// entries between them back one place.
func promote(tags, pays []uint64, h, p int) {
	tag, pay := tags[p], pays[p]
	for p != h {
		q := p - 1
		if q < 0 {
			q = len(tags) - 1
		}
		tags[p], pays[p] = tags[q], pays[q]
		p = q
	}
	tags[h], pays[h] = tag, pay
}

// probe looks vpn up, promoting it to MRU on a hit. It returns vpn's set,
// so an L2 hit refills L1 without a second probe.
func (t *TLB) probe(vpn addr.VPN) (si, pay uint64, hit bool) {
	si = t.setOf(vpn)
	tags, pays, h := t.ring(si)
	p := find(tags, h, uint64(vpn)+1)
	if p < 0 {
		return si, 0, false
	}
	pay = pays[p]
	promote(tags, pays, h, p)
	return si, pay, true
}

// push makes tag, which must be absent, the MRU entry of set si: the head
// steps back one slot, onto the LRU victim when the set is full and onto
// the last empty slot otherwise, so the empties stay a suffix.
func (t *TLB) push(si, tag, pay uint64) {
	h := t.heads[si]
	if h == 0 {
		h = uint32(t.ways)
	}
	h--
	t.heads[si] = h
	i := si*uint64(t.ways) + uint64(h)
	t.tags[i], t.pays[i] = tag, pay
}

// Lookup probes for vpn, updating LRU on a hit and returning the slot's
// payload.
func (t *TLB) Lookup(vpn addr.VPN) (uint64, bool) {
	_, pay, hit := t.probe(vpn)
	return pay, hit
}

// Insert installs vpn with its payload, evicting the set's LRU entry if
// needed. Re-inserting a resident vpn refreshes its payload and MRU slot.
func (t *TLB) Insert(vpn addr.VPN, pay uint64) {
	si := t.setOf(vpn)
	tags, pays, h := t.ring(si)
	if p := find(tags, h, uint64(vpn)+1); p >= 0 {
		pays[p] = pay
		promote(tags, pays, h, p)
		return
	}
	t.push(si, uint64(vpn)+1, pay)
}

// Invalidate removes vpn if present (TLB shootdown on unmap), pulling the
// entries behind it one place toward the head so the set's last valid slot
// becomes its first empty one.
func (t *TLB) Invalidate(vpn addr.VPN) {
	tags, pays, h := t.ring(t.setOf(vpn))
	p := find(tags, h, uint64(vpn)+1)
	if p < 0 {
		return
	}
	for {
		q := p + 1
		if q == len(tags) {
			q = 0
		}
		if q == h || tags[q] == 0 {
			break
		}
		tags[p], pays[p] = tags[q], pays[q]
		p = q
	}
	tags[p], pays[p] = 0, 0
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

// BatchWidth is the pipeline width of the batched translation path: the
// sim loop hands the MMU up to this many accesses per call, and every
// batched stage (TLB, table probes, cache) sizes its scratch to it. 64 is
// wide enough to amortize per-call dispatch to well under a cycle per
// access while keeping per-stage scratch (a few 64-entry arrays) inside L1.
const BatchWidth = 64

// Hierarchy is the full per-page-size two-level DTLB stack.
//
// live has bit s set once size s has had an Insert since the last Flush;
// Invalidate leaves it set. A size whose bit is clear holds no entry, so
// Lookup misses it without probing. With THP off every full miss would
// otherwise scan the empty 2MB and 1GB TLBs as well.
type Hierarchy struct {
	l1   [addr.NumPageSizes]*TLB
	l2   [addr.NumPageSizes]*TLB
	live uint8
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
// the hit payload, and the lookup latency. An L2 hit refills L1. A size
// with no Insert since the last Flush is not probed.
func (h *Hierarchy) Lookup(va addr.VirtAddr, s addr.PageSize) (Result, uint64, uint64) {
	l1, l2 := h.l1[s], h.l2[s]
	if h.live&(1<<s) == 0 {
		return MissAll, 0, l1.cfg.Latency + l2.cfg.Latency
	}
	vpn := va.PageNumber(s)
	si, pay, ok := l1.probe(vpn)
	if ok {
		return HitL1, pay, l1.cfg.Latency
	}
	if pay, ok := l2.Lookup(vpn); ok {
		l1.push(si, uint64(vpn)+1, pay)
		return HitL2, pay, l1.cfg.Latency + l2.cfg.Latency
	}
	return MissAll, 0, l1.cfg.Latency + l2.cfg.Latency
}

// LookupVA probes the hierarchy for va across all page sizes in ascending
// order — exactly the MMU's scalar probe loop, fused into one call. On a
// hit it returns the level, winning page size, payload, and that size's hit
// latency; on a full miss it returns MissAll with the maximum per-size miss
// latency (the parallel-probe timing model the scalar path uses).
func (h *Hierarchy) LookupVA(va addr.VirtAddr) (Result, addr.PageSize, uint64, uint64) {
	var miss uint64
	for _, s := range addr.Sizes() {
		r, pay, lat := h.Lookup(va, s)
		if r != MissAll {
			return r, s, pay, lat
		}
		miss = max(miss, lat)
	}
	return MissAll, 0, 0, miss
}

// LookupBatchPAs resolves the longest all-hit prefix of vas into physical
// addresses with one LookupVA per element. pas[i] receives the translated
// address of each resolved element; the per-element metadata collapses into
// aggregates — the L1-hit count and the summed lookup latency. It stops at
// the first element that misses every structure: that element's probes
// have already been performed and priced, so the caller must complete it
// with the page walk directly, NOT by calling LookupVA again. Returns the
// resolved count n, the L1-hit count among them, the summed latency, and
// (when n < len(vas)) element n's full-miss latency. At most BatchWidth
// elements are consumed per call.
func (h *Hierarchy) LookupBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64, uint64) {
	if len(vas) > BatchWidth {
		vas = vas[:BatchWidth]
	}
	var l1, latSum uint64
	for i, va := range vas {
		r, s, pay, lat := h.LookupVA(va)
		if r == MissAll {
			return i, l1, latSum, lat
		}
		if r == HitL1 {
			l1++
		}
		latSum += lat
		pas[i] = addr.Translate(va, addr.PPN(pay), s)
	}
	return len(vas), l1, latSum, 0
}

// Insert installs a completed translation (payload pay, the PPN) into both
// levels.
func (h *Hierarchy) Insert(va addr.VirtAddr, s addr.PageSize, pay uint64) {
	vpn := va.PageNumber(s)
	h.live |= 1 << s
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
	h.live = 0
}
