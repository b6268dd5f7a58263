package ecpt

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/cuckoo"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/stats"
)

// StatsState is the serializable form of Stats (the Reinsertions histogram
// has unexported fields, so it crosses the checkpoint as HistogramState).
type StatsState struct {
	MaxContiguousAlloc uint64
	AllocCycles        uint64
	PeakFootprintBytes uint64
	FailedAllocs       uint64
	Reinsertions       stats.HistogramState
	Upsizes            uint64
	Downsizes          uint64
	Moves              uint64
}

// GroupState is one generation of contiguously-allocated ways.
type GroupState struct {
	EntriesPerWay uint64
	Bases         []addr.PPN
}

// TableState is the serializable form of one per-page-size ECPT.
type TableState struct {
	Size   addr.PageSize
	Ways   int
	Groups []GroupState
	Cuckoo cuckoo.TableState
	Stats  StatsState
}

// State returns a deep copy of the table.
func (t *Table) State() TableState {
	st := TableState{
		Size:   t.size,
		Ways:   t.ways,
		Groups: make([]GroupState, len(t.groups)),
		Cuckoo: t.tb.State(),
		Stats: StatsState{
			MaxContiguousAlloc: t.stats.MaxContiguousAlloc,
			AllocCycles:        t.stats.AllocCycles,
			PeakFootprintBytes: t.stats.PeakFootprintBytes,
			FailedAllocs:       t.stats.FailedAllocs,
			Reinsertions:       t.stats.Reinsertions.State(),
			Upsizes:            t.stats.Upsizes,
			Downsizes:          t.stats.Downsizes,
			Moves:              t.stats.Moves,
		},
	}
	for i, g := range t.groups {
		st.Groups[i] = GroupState{
			EntriesPerWay: g.entriesPerWay,
			Bases:         append([]addr.PPN(nil), g.bases...),
		}
	}
	return st
}

// RestoreTable rebuilds one per-page-size ECPT from recorded state without
// allocating: the group bases are frames the restored allocator already
// shows as owned. cfg must carry the captured table's HashSeed/Ways and a
// Rand repositioned to its captured draw count. It returns an error for
// way geometry cuckoo.RestoreTable rejects, a way count other than cfg's,
// and way groups Check rejects.
func RestoreTable(st TableState, alloc phys.Source, cfg Config) (*Table, error) {
	if st.Ways != cfg.Ways {
		return nil, fmt.Errorf("size %v: %d ways, config has %d", st.Size, st.Ways, cfg.Ways)
	}
	t := &Table{size: st.Size, ways: st.Ways, alloc: alloc}
	t.stats = Stats{
		MaxContiguousAlloc: st.Stats.MaxContiguousAlloc,
		AllocCycles:        st.Stats.AllocCycles,
		PeakFootprintBytes: st.Stats.PeakFootprintBytes,
		FailedAllocs:       st.Stats.FailedAllocs,
		Upsizes:            st.Stats.Upsizes,
		Downsizes:          st.Stats.Downsizes,
		Moves:              st.Stats.Moves,
	}
	t.stats.Reinsertions.Restore(st.Stats.Reinsertions)
	t.groups = make([]group, len(st.Groups))
	for i, g := range st.Groups {
		t.groups[i] = group{
			entriesPerWay: g.EntriesPerWay,
			bases:         append([]addr.PPN(nil), g.Bases...),
		}
	}
	ccfg := cuckoo.Config{
		Ways:           cfg.Ways,
		InitialEntries: cfg.InitialEntries,
		UpsizeAt:       cfg.UpsizeAt,
		DownsizeAt:     cfg.DownsizeAt,
		MaxKicks:       cfg.MaxKicks,
		RehashBatch:    cfg.RehashBatch,
		HashSeed:       cfg.HashSeed + uint64(st.Size)*0x2000,
		Rand:           cfg.Rand,
		Hooks: cuckoo.Hooks{
			AllocWays:      t.allocWays,
			FreeWays:       t.freeWays,
			OnReinsertions: func(n int) { t.stats.Reinsertions.Add(n) },
			OnMove:         func() { t.stats.Moves++ },
		},
	}
	var err error
	if t.tb, err = cuckoo.RestoreTable(ccfg, st.Cuckoo); err != nil {
		return nil, fmt.Errorf("size %v: %w", st.Size, err)
	}
	if bad := t.Check(); len(bad) > 0 {
		return nil, errors.New(strings.Join(bad, "; "))
	}
	return t, nil
}

// PageTableState is the serializable form of a process's complete ECPT.
// Tables holds only the live per-size tables (each self-identifies via its
// Size field): gob refuses nil elements inside arrays, so a sparse
// [NumPageSizes]*TableState cannot cross the checkpoint.
type PageTableState struct {
	Tables []TableState
	Slab   pt.SlabState
}

// State returns a deep copy of the page table.
func (p *PageTable) State() PageTableState {
	st := PageTableState{Slab: p.Hashed.SlabState()}
	for _, t := range p.Hashed.LiveTables() {
		st.Tables = append(st.Tables, t.State())
	}
	return st
}

// RestorePageTable rebuilds a process's ECPT from recorded state without
// allocating; see RestoreTable for the cfg requirements. It returns an
// error for a table RestoreTable rejects or a slab the tables cannot
// consistently reference (see pt.Hashed.RestoreTables).
func RestorePageTable(alloc phys.Source, cfg Config, st PageTableState) (*PageTable, error) {
	tables := make([]*Table, len(st.Tables))
	for i, ts := range st.Tables {
		t, err := RestoreTable(ts, alloc, cfg)
		if err != nil {
			return nil, fmt.Errorf("ecpt: %w", err)
		}
		tables[i] = t
	}
	p := newPageTable(alloc, cfg)
	if err := p.RestoreTables(st.Slab, tables); err != nil {
		return nil, fmt.Errorf("ecpt: %w", err)
	}
	return p, nil
}

// VisitOwnedFrames reports every physical block the table owns — each live
// group's contiguous ways — as (base PPN, bytes) pairs.
func (t *Table) VisitOwnedFrames(f func(base addr.PPN, bytes uint64)) {
	for _, g := range t.groups {
		wayBytes := g.entriesPerWay * pt.EntryBytes
		for _, b := range g.bases {
			f(b, wayBytes)
		}
	}
}

// Range calls f for every stored (cluster key, value).
func (t *Table) Range(f func(key, val uint64)) {
	t.tb.Range(func(key, val uint64) bool {
		f(key, val)
		return true
	})
}

// Check runs the structural consistency checks the scrubber reports: the
// group list must back the cuckoo geometry, one group of one base per way
// for each way array in order (the current ways, then mid-resize the
// target ways), each group's entries per way matching its array's size.
func (t *Table) Check() []string {
	sizes := t.tb.WaySizes()
	if len(t.groups) != len(sizes) {
		return []string{fmt.Sprintf("size %v: %d way groups, resize state wants %d", t.size, len(t.groups), len(sizes))}
	}
	var bad []string
	for gi, g := range t.groups {
		if g.entriesPerWay != sizes[gi] {
			bad = append(bad, fmt.Sprintf("size %v group %d: backs %d entries/way, table is at %d", t.size, gi, g.entriesPerWay, sizes[gi]))
		}
		if len(g.bases) != t.ways {
			bad = append(bad, fmt.Sprintf("size %v group %d: %d way bases for %d ways", t.size, gi, len(g.bases), t.ways))
		}
	}
	return bad
}
