package mehpt

import (
	"fmt"
	"repro/internal/addr"
	"repro/internal/chunk"
	"repro/internal/cuckoo"
	"repro/internal/hashfn"
	"repro/internal/l2p"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/stats"
)

// StatsState is the serializable form of Stats (the Reinsertions histogram
// has unexported fields, so it crosses the checkpoint as HistogramState).
type StatsState struct {
	Inserts, Lookups, Deletes uint64
	Kicks                     uint64
	UpsizesPerWay             []uint64
	Downsizes                 uint64
	Transitions               uint64
	FailedUpsizes             uint64
	Stalls                    uint64
	Stashed                   uint64
	UpsizeMoved, UpsizeStayed uint64
	MovesTotal                uint64
	Reinsertions              stats.HistogramState
	MaxContiguousAlloc        uint64
	AllocCycles               uint64
	PeakFootprintBytes        uint64
}

func captureStats(s *Stats) StatsState {
	st := StatsState{
		Inserts: s.Inserts, Lookups: s.Lookups, Deletes: s.Deletes,
		Kicks:         s.Kicks,
		UpsizesPerWay: append([]uint64(nil), s.UpsizesPerWay...),
		Downsizes:     s.Downsizes, Transitions: s.Transitions,
		FailedUpsizes: s.FailedUpsizes, Stalls: s.Stalls, Stashed: s.Stashed,
		UpsizeMoved: s.UpsizeMoved, UpsizeStayed: s.UpsizeStayed,
		MovesTotal:         s.MovesTotal,
		Reinsertions:       s.Reinsertions.State(),
		MaxContiguousAlloc: s.MaxContiguousAlloc,
		AllocCycles:        s.AllocCycles,
		PeakFootprintBytes: s.PeakFootprintBytes,
	}
	return st
}

func restoreStats(st StatsState) Stats {
	s := Stats{
		Inserts: st.Inserts, Lookups: st.Lookups, Deletes: st.Deletes,
		Kicks:         st.Kicks,
		UpsizesPerWay: append([]uint64(nil), st.UpsizesPerWay...),
		Downsizes:     st.Downsizes, Transitions: st.Transitions,
		FailedUpsizes: st.FailedUpsizes, Stalls: st.Stalls, Stashed: st.Stashed,
		UpsizeMoved: st.UpsizeMoved, UpsizeStayed: st.UpsizeStayed,
		MovesTotal:         st.MovesTotal,
		MaxContiguousAlloc: st.MaxContiguousAlloc,
		AllocCycles:        st.AllocCycles,
		PeakFootprintBytes: st.PeakFootprintBytes,
	}
	s.Reinsertions.Restore(st.Reinsertions)
	return s
}

// WayState is the serializable form of one way, including its resize
// machinery and chunk backing.
type WayState struct {
	Idx      int
	Slots    []cuckoo.Entry
	Size     uint64
	Occ      uint64
	Store    chunk.State
	Pending  *chunk.State // non-nil during an out-of-place resize
	Resizing bool
	Up       bool
	NewSize  uint64
	Ptr      uint64
}

// TableState is the serializable form of one per-page-size Table.
type TableState struct {
	Size  addr.PageSize
	Ways  []WayState
	Stash []cuckoo.Entry
	Stats StatsState
}

// State returns a deep copy of the table.
func (t *Table) State() TableState {
	st := TableState{
		Size:  t.size,
		Ways:  make([]WayState, len(t.ways)),
		Stash: append([]cuckoo.Entry(nil), t.stash...),
		Stats: captureStats(&t.stats),
	}
	for i, w := range t.ways {
		ws := WayState{
			Idx:      w.idx,
			Slots:    append([]cuckoo.Entry(nil), w.slots...),
			Size:     w.size,
			Occ:      w.occ,
			Store:    w.store.State(),
			Resizing: w.resizing,
			Up:       w.up,
			NewSize:  w.newSize,
			Ptr:      w.ptr,
		}
		if w.pending != nil {
			ps := w.pending.State()
			ws.Pending = &ps
		}
		st.Ways[i] = ws
	}
	return st
}

// restoreTable rebuilds one per-page-size table from recorded state. No
// physical allocation happens: the chunk stores are reattached to frames
// the restored allocator already shows as owned. It returns an error for
// state checkWays rejects.
func restoreTable(st TableState, alloc phys.Source, tbl *l2p.Table, cfg Config) (*Table, error) {
	if cfg.Rand == nil {
		panic("mehpt: restore requires an explicitly positioned Config.Rand")
	}
	if err := checkWays(st, cfg.Ways); err != nil {
		return nil, fmt.Errorf("size %v: %w", st.Size, err)
	}
	t := &Table{
		cfg:   cfg,
		size:  st.Size,
		alloc: alloc,
		l2p:   tbl,
		rng:   cfg.Rand,
		stash: append([]cuckoo.Entry(nil), st.Stash...),
	}
	t.stats = restoreStats(st.Stats)
	fns := hashfn.Family(cfg.HashSeed+uint64(st.Size)*0x1000, cfg.Ways)
	t.mixer = hashfn.NewMixer(fns)
	t.ways = make([]*way, len(st.Ways))
	for i, ws := range st.Ways {
		w := &way{
			idx:      ws.Idx,
			fn:       fns[i],
			slots:    append([]cuckoo.Entry(nil), ws.Slots...),
			size:     ws.Size,
			occ:      ws.Occ,
			store:    chunk.RestoreStore(ws.Store, alloc, tbl),
			resizing: ws.Resizing,
			up:       ws.Up,
			newSize:  ws.NewSize,
			ptr:      ws.Ptr,
		}
		if ws.Pending != nil {
			w.pending = chunk.RestoreStore(*ws.Pending, alloc, tbl)
		}
		t.ways[i] = w
	}
	return t, nil
}

// checkWays rejects a table state whose ways do not match the config's way
// count, or whose slot arrays disagree with their recorded sizes: outside a
// resize a way holds Size slots, a power of two; during one it holds the
// larger of Size and NewSize, with the rehash pointer inside the old Size.
func checkWays(st TableState, ways int) error {
	if len(st.Ways) != ways || len(st.Stats.UpsizesPerWay) != ways {
		return fmt.Errorf("%d ways and %d upsize counters, config has %d ways",
			len(st.Ways), len(st.Stats.UpsizesPerWay), ways)
	}
	pow2 := func(n uint64) bool { return n != 0 && n&(n-1) == 0 }
	for i, w := range st.Ways {
		slots := w.Size
		if w.Resizing {
			if !pow2(w.NewSize) || w.NewSize == w.Size || w.Up != (w.NewSize > w.Size) || w.Ptr > w.Size {
				return fmt.Errorf("way %d: resize %d -> %d (up %v) at pointer %d is inconsistent",
					i, w.Size, w.NewSize, w.Up, w.Ptr)
			}
			slots = max(w.Size, w.NewSize)
		}
		if w.Idx != i || !pow2(w.Size) || uint64(len(w.Slots)) != slots {
			return fmt.Errorf("way %d: index %d, size %d and %d slots are inconsistent",
				i, w.Idx, w.Size, len(w.Slots))
		}
	}
	return nil
}

// PageTableState is the serializable form of a process's complete ME-HPT.
// Tables holds only the live per-size tables (each self-identifies via its
// Size field): gob refuses nil elements inside arrays, so a sparse
// [NumPageSizes]*TableState cannot cross the checkpoint.
type PageTableState struct {
	Tables []TableState
	Slab   pt.SlabState
	L2P    l2p.State
}

// State returns a deep copy of the page table.
func (p *PageTable) State() PageTableState {
	st := PageTableState{
		Slab: p.Hashed.SlabState(),
		L2P:  p.l2pTbl.State(),
	}
	for _, t := range p.Hashed.LiveTables() {
		st.Tables = append(st.Tables, t.State())
	}
	return st
}

// RestorePageTable rebuilds a process's ME-HPT from recorded state over an
// already-restored allocator, without allocating. cfg must carry the same
// HashSeed/Ways as the captured table and a Rand repositioned to its
// captured draw count (all per-size tables of one page table share it,
// exactly as under NewPageTable). It returns an error for way geometry
// the tables cannot run on (see checkWays) or a slab they cannot
// consistently reference (see pt.Hashed.RestoreTables).
func RestorePageTable(alloc phys.Source, cfg Config, st PageTableState) (*PageTable, error) {
	p := newPageTable(alloc, cfg)
	p.l2pTbl.Restore(st.L2P)
	tables := make([]*Table, len(st.Tables))
	for i, ts := range st.Tables {
		t, err := restoreTable(ts, alloc, p.l2pTbl, cfg)
		if err != nil {
			return nil, fmt.Errorf("mehpt: %w", err)
		}
		tables[i] = t
	}
	if err := p.RestoreTables(st.Slab, tables); err != nil {
		return nil, fmt.Errorf("mehpt: %w", err)
	}
	return p, nil
}

// VisitOwnedFrames reports every physical block the table owns — the
// chunk backing of every way (pending stores included) — as (base PPN,
// bytes) pairs.
func (t *Table) VisitOwnedFrames(f func(base addr.PPN, bytes uint64)) {
	for _, w := range t.ways {
		for _, c := range w.store.Chunks() {
			f(c, w.store.ChunkBytes())
		}
		if w.pending != nil {
			for _, c := range w.pending.Chunks() {
				f(c, w.pending.ChunkBytes())
			}
		}
	}
}

// Range calls f for every stored (cluster key, cluster id), stash-resident
// entries included.
func (t *Table) Range(f func(key, id uint64)) {
	for _, w := range t.ways {
		for _, e := range w.slots {
			if e.Key != cuckoo.EmptyKey {
				f(e.Key, e.Val)
			}
		}
	}
	for _, e := range t.stash {
		if e.Key != cuckoo.EmptyKey {
			f(e.Key, e.Val)
		}
	}
}

// Check runs the table-structure consistency checks the scrubber reports
// as chunk/upsize-bit violations: per-way occupancy counters must match the
// live slots, resize bits must be internally consistent, and the chunk
// backing must cover the logical slot array. It returns one message per
// violation.
func (t *Table) Check() []string {
	var bad []string
	for _, w := range t.ways {
		live := uint64(0)
		for _, e := range w.slots {
			if e.Key != cuckoo.EmptyKey {
				live++
			}
		}
		if live != w.occ {
			bad = append(bad, fmt.Sprintf("size %v way %d: occ %d but %d live slots", t.size, w.idx, w.occ, live))
		}
		if w.resizing {
			if w.up != (w.newSize > w.size) {
				bad = append(bad, fmt.Sprintf("size %v way %d: up bit %v inconsistent with %d -> %d", t.size, w.idx, w.up, w.size, w.newSize))
			}
			if w.ptr > w.size {
				bad = append(bad, fmt.Sprintf("size %v way %d: rehash ptr %d beyond old size %d", t.size, w.idx, w.ptr, w.size))
			}
		} else if w.pending != nil {
			bad = append(bad, fmt.Sprintf("size %v way %d: pending store without resize in flight", t.size, w.idx))
		}
		need := uint64(len(w.slots)) * pt.EntryBytes
		if w.pending == nil && w.store.WayBytes() < need {
			bad = append(bad, fmt.Sprintf("size %v way %d: chunk backing %dB under slot array %dB", t.size, w.idx, w.store.WayBytes(), need))
		}
	}
	return bad
}
