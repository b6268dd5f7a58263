package pt

import (
	"fmt"

	"repro/internal/addr"
)

// SizeTable is one per-page-size hashed table mapping cluster keys
// (ClusterKey) to 64-bit values: a slab cluster id, or a one-page cluster
// stored inline (see inlineBit). The table stores values opaquely. ECPT
// and ME-HPT differ only below this interface: how ways are allocated,
// probed, and resized. Everything above it — lazy per-size tables, the
// shared cluster slab, the value encoding, largest-size-first
// translation, and the footprint totals — is Hashed.
type SizeTable interface {
	comparable
	// PageSize returns the page size the table translates.
	PageSize() addr.PageSize
	// Lookup returns the value stored for key.
	Lookup(key uint64) (uint64, bool)
	// Walk is Lookup additionally returning the physical address of the
	// probe slot the hardware walk reads for key, with Lookup's statistics
	// footprint.
	Walk(key uint64) (val uint64, probe addr.PhysAddr, ok bool)
	// WayOf returns the way holding key, without touching statistics.
	WayOf(key uint64) (int, bool)
	// Insert stores key→val for a key the table does not hold, and
	// returns the allocation cycles it spent, including on failure. Its
	// one caller, Hashed.Map, has just missed key in Lookup, so an
	// implementation need not probe for key again (ME-HPT does not; ECPT's
	// cuckoo.Table upserts).
	Insert(key, val uint64) (uint64, error)
	// SetValue overwrites the value of the present key in place. The value
	// is host-only, so SetValue counts nothing, draws no randomness, and
	// never resizes: every simulated counter stays as it was.
	SetValue(key, val uint64)
	// Delete removes the present key and returns the allocation cycles it
	// spent.
	Delete(key uint64) uint64
	// Totals returns the table's footprint and allocation counters.
	Totals() Totals
	// Range calls f for every stored (key, val).
	Range(f func(key, val uint64))
	// VisitOwnedFrames reports every physical block the table owns.
	VisitOwnedFrames(f func(base addr.PPN, bytes uint64))
	// Check returns one message per structural inconsistency.
	Check() []string
	// Free releases all physical memory the table holds.
	Free()
}

// Totals are one per-size table's memory and allocation counters.
type Totals struct {
	FootprintBytes     uint64 // physical page-table memory held now
	PeakFootprintBytes uint64 // high-water mark of FootprintBytes
	MaxContiguousAlloc uint64 // largest contiguous allocation requested
	Moves              uint64 // entries migrated by resizes
	AllocCycles        uint64 // cycles spent on physical allocation
}

// Hashed is a process's multi-size hashed page table: one SizeTable per
// page size, created on the first mapping at that size, over one shared
// cluster slab.
type Hashed[T SizeTable] struct {
	tables [addr.NumPageSizes]T
	slab   Slab
	// newTable builds the table for one page size. The owning page table
	// supplies it at construction and again on restore.
	newTable func(s addr.PageSize) (T, error)
}

// NewHashed returns an empty multi-size table that builds per-size tables
// with newTable.
func NewHashed[T SizeTable](newTable func(s addr.PageSize) (T, error)) Hashed[T] {
	return Hashed[T]{newTable: newTable}
}

// Table returns the per-page-size table, or the zero T if no page of that
// size has been mapped yet.
func (h *Hashed[T]) Table(s addr.PageSize) T { return h.tables[s] }

// Ensure returns the per-page-size table, creating it on first use.
func (h *Hashed[T]) Ensure(s addr.PageSize) (T, error) {
	var none T
	if h.tables[s] == none {
		t, err := h.newTable(s)
		if err != nil {
			return none, err
		}
		h.tables[s] = t
	}
	return h.tables[s], nil
}

// LiveTables returns the instantiated per-size tables, smallest page size
// first — the order a checkpoint records them in.
func (h *Hashed[T]) LiveTables() []T {
	var none T
	var out []T
	for _, t := range h.tables {
		if t != none {
			out = append(out, t)
		}
	}
	return out
}

// A table value is either a slab cluster id or, with inlineBit set, a
// cluster holding one page stored in the value word itself: the PPN in
// bits 0–47 and its sub-index in bits 48–50, bits 51–62 zero. Most sparse
// clusters never get a second page, so they cost no slab cluster and a
// walk of one reads no memory beyond its way slot.
const (
	inlineBit      = 1 << 63
	inlineSubShift = 48
	inlinePPNMask  = 1<<inlineSubShift - 1
	// inlineReserved are the bits an inline value holds zero.
	inlineReserved = (inlineBit - 1) &^ (inlinePPNMask | (ClusterSpan-1)<<inlineSubShift)
)

// inlineValue returns the value of a cluster holding ppn, at most maxPPN,
// in slot sub and no other.
func inlineValue(sub uint, ppn addr.PPN) uint64 {
	return inlineBit | uint64(sub)<<inlineSubShift | uint64(ppn)
}

// inlinePage returns the slot and PPN of an inline value.
func inlinePage(val uint64) (uint, addr.PPN) {
	return uint(val>>inlineSubShift) % ClusterSpan, addr.PPN(val & inlinePPNMask)
}

// get returns the translation in slot sub of the cluster val names. It is
// a Slab method, not a generic Hashed one, so that it inlines into the
// walk.
func (s *Slab) get(val uint64, sub uint) (addr.PPN, bool) {
	if val&inlineBit != 0 {
		return addr.PPN(val & inlinePPNMask), val&^inlinePPNMask == inlineBit|uint64(sub)<<inlineSubShift
	}
	return s.At(val).get(sub)
}

// Map installs the translation vpn→ppn at the given page size. It returns
// the allocation cycles the insert and any resize it triggers spent; the
// first mapping at a size creates that size's table uncharged. It rejects
// a PPN above 2^48-2, which a cluster slot cannot hold.
//
// A new cluster is inserted inline. The first mapping of a second page in
// it promotes it to a slab cluster holding both; no cluster is demoted
// back to inline.
func (h *Hashed[T]) Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error) {
	if ppn > maxPPN {
		return 0, fmt.Errorf("pt: PPN %#x does not fit a cluster slot", uint64(ppn))
	}
	t, err := h.Ensure(s)
	if err != nil {
		return 0, err
	}
	key := ClusterKey(vpn)
	sub := SubIndex(vpn)
	val, ok := t.Lookup(key)
	if !ok {
		return t.Insert(key, inlineValue(sub, ppn))
	}
	if val&inlineBit == 0 {
		h.slab.At(val).set(sub, ppn)
		return 0, nil
	}
	if vsub, vppn := inlinePage(val); vsub != sub {
		id := h.slab.Alloc()
		c := h.slab.At(id)
		c.set(vsub, vppn)
		c.set(sub, ppn)
		val = id
	} else {
		val = inlineValue(sub, ppn)
	}
	t.SetValue(key, val)
	return 0, nil
}

// Unmap removes the translation for vpn at the given page size, reporting
// whether it existed.
func (h *Hashed[T]) Unmap(vpn addr.VPN, s addr.PageSize) (uint64, bool) {
	var none T
	t := h.tables[s]
	if t == none {
		return 0, false
	}
	key := ClusterKey(vpn)
	sub := SubIndex(vpn)
	val, ok := t.Lookup(key)
	if !ok {
		return 0, false
	}
	if _, valid := h.slab.get(val, sub); !valid {
		return 0, false
	}
	if val&inlineBit != 0 {
		return t.Delete(key), true
	}
	if h.slab.At(val).clear(sub) {
		cycles := t.Delete(key)
		h.slab.Free(val)
		return cycles, true
	}
	return 0, true
}

// Translate resolves va against all page sizes, largest first (a huge-page
// mapping shadows any stale base-page entries).
func (h *Hashed[T]) Translate(va addr.VirtAddr) (Translation, bool) {
	for i := int(addr.NumPageSizes) - 1; i >= 0; i-- {
		s := addr.PageSize(i)
		if ppn, ok := h.TranslateSize(va.PageNumber(s), s); ok {
			return Translation{PPN: ppn, Size: s}, true
		}
	}
	return Translation{}, false
}

// TranslateSize resolves vpn at exactly the given page size.
func (h *Hashed[T]) TranslateSize(vpn addr.VPN, s addr.PageSize) (addr.PPN, bool) {
	var none T
	t := h.tables[s]
	if t == none {
		return 0, false
	}
	val, ok := t.Lookup(ClusterKey(vpn))
	if !ok {
		return 0, false
	}
	return h.slab.get(val, SubIndex(vpn))
}

// Walk resolves va and returns the physical address of the probe slot that
// holds its cluster — the fused equivalent of Translate, WayOf, and a probe
// of the winning way, with Translate's statistics footprint (one lookup per
// instantiated size table until the hit).
func (h *Hashed[T]) Walk(va addr.VirtAddr) (Translation, addr.PhysAddr, bool) {
	var none T
	for i := int(addr.NumPageSizes) - 1; i >= 0; i-- {
		s := addr.PageSize(i)
		t := h.tables[s]
		if t == none {
			continue
		}
		vpn := va.PageNumber(s)
		val, probe, ok := t.Walk(ClusterKey(vpn))
		if !ok {
			continue
		}
		if ppn, valid := h.slab.get(val, SubIndex(vpn)); valid {
			return Translation{PPN: ppn, Size: s}, probe, true
		}
	}
	return Translation{}, 0, false
}

// WayOf returns the way index holding va's cluster at page size s — ground
// truth for the cuckoo walk tables.
func (h *Hashed[T]) WayOf(va addr.VirtAddr, s addr.PageSize) (int, bool) {
	var none T
	t := h.tables[s]
	if t == none {
		return 0, false
	}
	return t.WayOf(ClusterKey(va.PageNumber(s)))
}

// totals sums the per-size counters; MaxContiguousAlloc is their maximum.
func (h *Hashed[T]) totals() Totals {
	var none T
	var sum Totals
	for _, t := range h.tables {
		if t == none {
			continue
		}
		x := t.Totals()
		sum.FootprintBytes += x.FootprintBytes
		sum.PeakFootprintBytes += x.PeakFootprintBytes
		sum.MaxContiguousAlloc = max(sum.MaxContiguousAlloc, x.MaxContiguousAlloc)
		sum.Moves += x.Moves
		sum.AllocCycles += x.AllocCycles
	}
	return sum
}

// FootprintBytes returns the physical page-table memory held across all
// page sizes.
func (h *Hashed[T]) FootprintBytes() uint64 { return h.totals().FootprintBytes }

// PeakFootprintBytes returns the sum of the per-size high-water marks.
func (h *Hashed[T]) PeakFootprintBytes() uint64 { return h.totals().PeakFootprintBytes }

// MaxContiguousAlloc returns the largest contiguous allocation any size
// table ever requested (Table I, Figure 8).
func (h *Hashed[T]) MaxContiguousAlloc() uint64 { return h.totals().MaxContiguousAlloc }

// Moves returns the entries migrated by resizes across all page sizes.
func (h *Hashed[T]) Moves() uint64 { return h.totals().Moves }

// AllocCycles returns total cycles spent on physical allocation.
func (h *Hashed[T]) AllocCycles() uint64 { return h.totals().AllocCycles }

// Free releases all physical memory held by the page table (process exit).
func (h *Hashed[T]) Free() {
	for _, t := range h.LiveTables() {
		t.Free()
	}
}

// VisitMappings calls f for every live translation (vpn, size, ppn).
func (h *Hashed[T]) VisitMappings(f func(vpn addr.VPN, s addr.PageSize, ppn addr.PPN)) {
	for _, t := range h.LiveTables() {
		size := t.PageSize()
		t.Range(func(key, val uint64) {
			base := BaseVPN(key)
			for sub := uint(0); sub < ClusterSpan; sub++ {
				if ppn, ok := h.slab.get(val, sub); ok {
					f(base+addr.VPN(sub), size, ppn)
				}
			}
		})
	}
}

// VisitOwnedFrames reports every physical block the page table owns as
// (base PPN, bytes) pairs. The scrubber uses it to prove frame-ownership
// disjointness across tenants.
func (h *Hashed[T]) VisitOwnedFrames(f func(base addr.PPN, bytes uint64)) {
	for _, t := range h.LiveTables() {
		t.VisitOwnedFrames(f)
	}
}

// CheckTables runs every size table's structural consistency checks,
// returning one message per violation.
func (h *Hashed[T]) CheckTables() []string {
	var bad []string
	for _, t := range h.LiveTables() {
		bad = append(bad, t.Check()...)
	}
	return bad
}

// SlabState returns a deep copy of the cluster slab.
func (h *Hashed[T]) SlabState() SlabState { return h.slab.State() }

// RestoreTables replaces the slab and the per-size tables with restored
// ones. Each table is placed at its own page size. It rejects a table
// whose size is no page size or is another table's, a slab Restore
// rejects, an inline value
// with a reserved bit set or a PPN above 2^48-2, and a slab value that is
// no slab id, is on the free list, or is stored under two keys: the
// resumed run would translate to a page no Map installed on the first
// two, panic on the third, and share one cluster between two keys on the
// others. The page table is unchanged on error.
func (h *Hashed[T]) RestoreTables(slab SlabState, tables []T) error {
	var s Slab
	if err := s.Restore(slab); err != nil {
		return err
	}
	const (
		unused = iota
		onFree
		stored
	)
	use := make([]uint8, s.n)
	for _, id := range slab.Free {
		use[id] = onFree
	}
	var err error
	var placed [addr.NumPageSizes]bool
	for _, t := range tables {
		size := t.PageSize()
		if !size.Valid() || placed[size] {
			return fmt.Errorf("pt: a table of page size %d is out of range or repeated", size)
		}
		placed[size] = true
		t.Range(func(key, val uint64) {
			switch {
			case err != nil:
			case val&inlineBit != 0 && val&inlineReserved != 0:
				err = fmt.Errorf("pt: %v key %#x: inline value %#x sets reserved bits", t.PageSize(), key, val)
			case val&inlineBit != 0 && val&inlinePPNMask > maxPPN:
				err = fmt.Errorf("pt: %v key %#x: inline value %#x holds a PPN no cluster slot can", t.PageSize(), key, val)
			case val&inlineBit != 0:
			case val >= s.n:
				err = fmt.Errorf("pt: %v key %#x: cluster id %d out of range of %d clusters", t.PageSize(), key, val, s.n)
			case use[val] == onFree:
				err = fmt.Errorf("pt: %v key %#x: cluster id %d is on the free list", t.PageSize(), key, val)
			case use[val] == stored:
				err = fmt.Errorf("pt: %v key %#x: cluster id %d is stored under another key too", t.PageSize(), key, val)
			default:
				use[val] = stored
			}
		})
		if err != nil {
			return err
		}
	}
	h.slab = s
	for _, t := range tables {
		h.tables[t.PageSize()] = t
	}
	return nil
}
