// Package ecpt implements the baseline page-table organization the paper
// compares against: Elastic Cuckoo Page Tables (Skarlatos et al.,
// ASPLOS'20). Each page size has a W-way elastic cuckoo table whose ways
// are allocated in *contiguous* physical memory and which resizes out of
// place, all ways together — exactly the properties ME-HPT removes.
package ecpt

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/cuckoo"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/stats"
)

// Config parameterizes an ECPT.
type Config struct {
	Ways           int
	InitialEntries uint64  // 128 → 8KB ways (Table III)
	UpsizeAt       float64 // 0.6
	DownsizeAt     float64 // 0.2
	MaxKicks       int
	RehashBatch    int
	HashSeed       uint64
	Rand           *rand.Rand
}

// DefaultConfig returns the paper's Table III baseline configuration.
func DefaultConfig(seed uint64) Config {
	return Config{
		Ways:           3,
		InitialEntries: 128,
		UpsizeAt:       0.6,
		DownsizeAt:     0.2,
		MaxKicks:       32,
		RehashBatch:    1,
		HashSeed:       seed,
	}
}

// Stats aggregates per-table behaviour.
type Stats struct {
	MaxContiguousAlloc uint64
	AllocCycles        uint64
	PeakFootprintBytes uint64
	FailedAllocs       uint64
	Reinsertions       stats.Histogram
	Upsizes            uint64
	Downsizes          uint64
	Moves              uint64
}

// group is one generation of contiguously-allocated ways.
type group struct {
	entriesPerWay uint64
	bases         []addr.PPN
}

// Table is one per-page-size ECPT.
type Table struct {
	size addr.PageSize
	ways int
	tb   *cuckoo.Table
	// Not in the snapshot: RestoreTable reattaches the separately restored physical allocator
	alloc phys.Source
	// groups holds live way allocations oldest-first: during a resize the
	// first group backs the old table and the last the new one.
	groups []group
	stats  Stats
}

// NewTable creates an ECPT for one page size with contiguous initial ways.
func NewTable(size addr.PageSize, alloc phys.Source, cfg Config) (*Table, error) {
	t := &Table{size: size, ways: cfg.Ways, alloc: alloc}
	ccfg := cuckoo.Config{
		Ways:           cfg.Ways,
		InitialEntries: cfg.InitialEntries,
		UpsizeAt:       cfg.UpsizeAt,
		DownsizeAt:     cfg.DownsizeAt,
		MaxKicks:       cfg.MaxKicks,
		RehashBatch:    cfg.RehashBatch,
		HashSeed:       cfg.HashSeed + uint64(size)*0x2000,
		Rand:           cfg.Rand,
		Hooks: cuckoo.Hooks{
			AllocWays:      t.allocWays,
			FreeWays:       t.freeWays,
			OnReinsertions: func(n int) { t.stats.Reinsertions.Add(n) },
			OnMove:         func() { t.stats.Moves++ },
		},
	}
	// cuckoo.Build invokes AllocWays for the initial ways; under memory
	// pressure that can fail, and the error chain (down to
	// phys.ErrOutOfMemory) is surfaced to the caller.
	tb, err := cuckoo.Build(ccfg)
	if err != nil {
		return nil, fmt.Errorf("ecpt: %w", err)
	}
	t.tb = tb
	return t, nil
}

// allocWays allocates one contiguous region per way — the requirement that
// motivates the paper. Each way of entriesPerWay slots is entriesPerWay ×
// 64B of physically contiguous memory.
func (t *Table) allocWays(entriesPerWay uint64) error {
	wayBytes := entriesPerWay * pt.EntryBytes
	g := group{entriesPerWay: entriesPerWay}
	for i := 0; i < t.ways; i++ {
		ppn, cycles, err := t.alloc.Alloc(wayBytes)
		t.stats.AllocCycles += cycles
		if err != nil {
			for _, b := range g.bases {
				t.alloc.Free(b, wayBytes)
			}
			t.stats.FailedAllocs++
			return err
		}
		g.bases = append(g.bases, ppn)
	}
	if wayBytes > t.stats.MaxContiguousAlloc {
		t.stats.MaxContiguousAlloc = wayBytes
	}
	t.groups = append(t.groups, g)
	t.notePeak()
	return nil
}

func (t *Table) freeWays(entriesPerWay uint64) {
	wayBytes := entriesPerWay * pt.EntryBytes
	for gi, g := range t.groups {
		if g.entriesPerWay == entriesPerWay {
			for _, b := range g.bases {
				t.alloc.Free(b, wayBytes)
			}
			t.groups = append(t.groups[:gi], t.groups[gi+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("ecpt: freeWays(%d): no matching allocation", entriesPerWay))
}

func (t *Table) notePeak() {
	if f := t.FootprintBytes(); f > t.stats.PeakFootprintBytes {
		t.stats.PeakFootprintBytes = f
	}
}

// FootprintBytes returns the physical page-table memory currently held —
// old and new tables both count while a gradual resize is in flight, which
// is the memory overhead in-place resizing eliminates.
func (t *Table) FootprintBytes() uint64 {
	var b uint64
	for _, g := range t.groups {
		b += g.entriesPerWay * pt.EntryBytes * uint64(len(g.bases))
	}
	return b
}

// ScalarStats returns the accumulated counters, folding in the underlying
// cuckoo table's resize counts. The reinsertion histogram is left empty in
// the copy: the per-run result aggregation reads only scalar fields, and
// copying the histogram would be its one allocation.
func (t *Table) ScalarStats() Stats {
	s := t.stats
	s.Reinsertions = stats.Histogram{}
	cs := t.tb.Stats()
	s.Upsizes = cs.Upsizes
	s.Downsizes = cs.Downsizes
	return s
}

// PageSize returns the page size this table translates.
func (t *Table) PageSize() addr.PageSize { return t.size }

// Totals returns the table's footprint and allocation counters.
func (t *Table) Totals() pt.Totals {
	return pt.Totals{
		FootprintBytes:     t.FootprintBytes(),
		PeakFootprintBytes: t.stats.PeakFootprintBytes,
		MaxContiguousAlloc: t.stats.MaxContiguousAlloc,
		Moves:              t.stats.Moves,
		AllocCycles:        t.stats.AllocCycles,
	}
}

// Insert stores key→val and returns the allocation cycles spent by the
// ways it allocated (resizes), including on failure.
func (t *Table) Insert(key, val uint64) (uint64, error) {
	before := t.stats.AllocCycles
	_, err := t.tb.Insert(key, val)
	return t.stats.AllocCycles - before, err
}

// SetValue overwrites the value of the present key, counting nothing.
func (t *Table) SetValue(key, val uint64) { t.tb.Replace(key, val) }

// Lookup returns the value for key.
func (t *Table) Lookup(key uint64) (uint64, bool) { return t.tb.Lookup(key) }

// Walk is Lookup additionally returning the physical address of the probe
// slot of the way that hit, with the same statistics footprint.
func (t *Table) Walk(key uint64) (uint64, addr.PhysAddr, bool) {
	id, slot, ok := t.tb.LookupSlot(key)
	if !ok {
		return 0, 0, false
	}
	return id, t.slotAddr(slot), true
}

// Delete removes the present key and returns the allocation cycles spent
// by a resize it triggered.
func (t *Table) Delete(key uint64) uint64 {
	before := t.stats.AllocCycles
	t.tb.Delete(key)
	return t.stats.AllocCycles - before
}

// WayOf returns the way holding key.
func (t *Table) WayOf(key uint64) (int, bool) { return t.tb.WayOf(key) }

// slotAddr returns the physical address of a probe slot: the first group
// backs the old ways, the last the resize target.
func (t *Table) slotAddr(s cuckoo.Slot) addr.PhysAddr {
	g := &t.groups[0]
	if s.InNext {
		g = &t.groups[len(t.groups)-1]
	}
	return g.bases[s.Way].Addr(addr.Page4K) + addr.PhysAddr(s.Idx*pt.EntryBytes)
}

// Free releases all physical memory (process teardown). A drain failure is
// ignored: every live group is freed below regardless of resize state, so
// teardown never leaks frames.
func (t *Table) Free() {
	_ = t.tb.DrainResize() //mehpt:allow errwrap -- teardown: every live group is freed below regardless
	for _, g := range t.groups {
		wayBytes := g.entriesPerWay * pt.EntryBytes
		for _, b := range g.bases {
			t.alloc.Free(b, wayBytes)
		}
	}
	t.groups = nil
}
