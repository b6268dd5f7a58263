// Package mehpt implements Memory-Efficient Hashed Page Tables — the
// paper's contribution. An ME-HPT is a set of per-page-size W-way cuckoo
// tables whose ways are backed by discontiguous chunks through the L2P
// table, resize in place, and resize one way at a time with weighted-random
// insertion.
package mehpt

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/chunk"
	"repro/internal/cuckoo"
	"repro/internal/hashfn"
	"repro/internal/l2p"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/stats"
)

// ErrTableFull is returned when an insertion cannot be satisfied even after
// forcing resizes (memory exhausted or ladder exhausted). The error chain
// carries the underlying cause, down to phys.ErrOutOfMemory for genuine or
// injected allocation failures; the rejected entry is never left partially
// placed.
var ErrTableFull = errors.New("mehpt: table full")

// ErrResizeFailed is returned when a way upsize fails at every rung of the
// degradation ladder (in-place extension, chunk-size transition, and the
// out-of-place fallback over smaller chunks). The resize is deferred — the
// way stays valid at its old geometry and maybeResize retries on a later
// insert — and the chain carries the underlying allocation failure.
var ErrResizeFailed = errors.New("mehpt: way resize failed; deferred")

// ErrMigrationFailed is returned when a gradual-rehash migration step
// cannot re-place a displaced entry. The step is rolled back exactly —
// entry restored, rehash pointer rewound — so the table stays valid and
// the migration retries on a later tick with fresh displacement choices.
var ErrMigrationFailed = errors.New("mehpt: gradual-rehash migration failed")

// Config parameterizes an ME-HPT. The zero value is not usable; call
// DefaultConfig.
type Config struct {
	Ways           int
	InitialEntries uint64  // per-way slots at creation: 128 → 8KB ways
	UpsizeAt       float64 // 0.6 (Table III)
	DownsizeAt     float64 // 0.2 (Table III)
	MaxKicks       int
	RehashBatch    int // elements rehashed per resizing way per insert
	HashSeed       uint64
	Rand           *rand.Rand

	// Feature toggles for the paper's ablations.
	InPlace        bool     // Section IV-C; off = out-of-place (ECPT-style)
	PerWay         bool     // Section IV-D; off = all-way resizing
	WeightedInsert bool     // Section IV-D insertion policy
	Ladder         []uint64 // chunk-size ladder; nil = chunk.Ladder

	// OnWayChange, if set, is invoked whenever a key is placed into a way
	// (fresh insert, cuckoo kick, or migration) — the notification the OS
	// uses to maintain the cuckoo walk tables.
	OnWayChange func(key uint64, size addr.PageSize, way int)
}

// DefaultConfig returns the paper's Table III configuration.
func DefaultConfig(seed uint64) Config {
	return Config{
		Ways:           3,
		InitialEntries: 128,
		UpsizeAt:       0.6,
		DownsizeAt:     0.2,
		MaxKicks:       32,
		RehashBatch:    1,
		HashSeed:       seed,
		InPlace:        true,
		PerWay:         true,
		WeightedInsert: true,
	}
}

// Stats aggregates the per-table behaviour the evaluation reports.
type Stats struct {
	Inserts, Lookups, Deletes uint64
	Kicks                     uint64
	UpsizesPerWay             []uint64 // Figure 11
	Downsizes                 uint64
	Transitions               uint64 // chunk-size switches (out-of-place)
	FailedUpsizes             uint64
	Stalls                    uint64 // migration steps rolled back (retried later)
	Stashed                   uint64 // entries spilled to the software stash
	// Moved/Stayed count rehashed entries that did/did not change slots
	// during in-place upsizes (Figure 13: fraction moved ≈ 0.5).
	UpsizeMoved, UpsizeStayed uint64
	MovesTotal                uint64 // all migration writes, any resize kind
	Reinsertions              stats.Histogram
	MaxContiguousAlloc        uint64 // largest chunk ever requested
	AllocCycles               uint64
	PeakFootprintBytes        uint64
}

// Table is one per-page-size ME-HPT. It is not safe for concurrent use.
type Table struct {
	// Not in the snapshot: restoreTable requires the caller to re-supply the same Config (incl. a repositioned Rand)
	cfg  Config
	size addr.PageSize
	// Not in the snapshot: reattached by restoreTable to the separately restored physical allocator
	alloc phys.Source
	// Not in the snapshot: reattached by restoreTable to the separately restored L2P table
	l2p  *l2p.Table
	ways []*way
	// Not in the snapshot: pure function of cfg.HashSeed and page size, re-derived by restoreTable
	mixer *hashfn.Mixer // family-wide single-CRC hashing (read-only)
	// Not in the snapshot: owned and positioned by whoever supplied Config.Rand; restoreTable panics without one
	rng   *rand.Rand
	stats Stats
	// journal is tryPlace's displacement log, reused across insertions so
	// the write path does not allocate in steady state. Chains are bounded
	// by MaxKicks, and tryPlace is never re-entered while a chain is live.
	// Not in the snapshot: scratch buffer, cleared at the end of every insert; always empty between operations
	journal []undo
	// stash is the software overflow list: entries the table accepted but
	// could not re-place during a degraded resize (e.g. a transition
	// reinsert under memory pressure). The OS keeps such entries in a
	// software-walked side structure; lookups consult it after the W hash
	// probes, and inserts drain it back opportunistically. A slice (not a
	// map) so drain order is deterministic.
	stash []cuckoo.Entry
}

// NewTable creates an ME-HPT for one page size. Every way starts at the
// initial size (8KB) backed by one smallest-rung chunk.
func NewTable(size addr.PageSize, alloc phys.Source, tbl *l2p.Table, cfg Config) (*Table, error) {
	if cfg.Ways < 2 {
		panic("mehpt: need at least 2 ways")
	}
	if cfg.InitialEntries == 0 || cfg.InitialEntries&(cfg.InitialEntries-1) != 0 {
		panic("mehpt: initial entries must be a power of two")
	}
	if cfg.Ways != tbl.Ways() {
		panic("mehpt: config ways != l2p ways")
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(int64(cfg.HashSeed)*31 + int64(size)))
	}
	t := &Table{
		cfg:   cfg,
		size:  size,
		alloc: alloc,
		l2p:   tbl,
		rng:   rng,
	}
	t.stats.UpsizesPerWay = make([]uint64, cfg.Ways)
	fns := hashfn.Family(cfg.HashSeed+uint64(size)*0x1000, cfg.Ways)
	t.mixer = hashfn.NewMixer(fns)
	for i := 0; i < cfg.Ways; i++ {
		st, cycles, err := chunk.NewStoreLadder(alloc, tbl, i, size,
			cfg.InitialEntries*pt.EntryBytes, t.ladder())
		if err != nil {
			// Release the ways already built: a failed construction must not
			// strand their chunks (the caller retries on a later mapping).
			for _, w := range t.ways {
				w.store.Free()
			}
			return nil, fmt.Errorf("mehpt: initial way %d: %w", i, err)
		}
		t.noteAlloc(st.ChunkBytes(), cycles)
		t.ways = append(t.ways, newWay(i, fns[i], cfg.InitialEntries, st))
	}
	t.notePeak()
	return t, nil
}

func (t *Table) ladder() []uint64 {
	if t.cfg.Ladder != nil {
		return t.cfg.Ladder
	}
	return chunk.Ladder
}

func (t *Table) noteAlloc(chunkBytes, cycles uint64) {
	if chunkBytes > t.stats.MaxContiguousAlloc {
		t.stats.MaxContiguousAlloc = chunkBytes
	}
	t.stats.AllocCycles += cycles
}

func (t *Table) notePeak() {
	if f := t.FootprintBytes(); f > t.stats.PeakFootprintBytes {
		t.stats.PeakFootprintBytes = f
	}
}

// FootprintBytes returns the physical page-table memory currently held.
func (t *Table) FootprintBytes() uint64 {
	var b uint64
	for _, w := range t.ways {
		b += w.footprint()
	}
	return b
}

// Stats returns a copy of the accumulated statistics.
func (t *Table) Stats() Stats {
	s := t.stats
	s.UpsizesPerWay = append([]uint64(nil), t.stats.UpsizesPerWay...)
	s.Reinsertions = stats.Histogram{}
	s.Reinsertions.Merge(&t.stats.Reinsertions)
	return s
}

// Totals returns the table's footprint and allocation counters.
func (t *Table) Totals() pt.Totals {
	return pt.Totals{
		FootprintBytes:     t.FootprintBytes(),
		PeakFootprintBytes: t.stats.PeakFootprintBytes,
		MaxContiguousAlloc: t.stats.MaxContiguousAlloc,
		Moves:              t.stats.MovesTotal,
		AllocCycles:        t.stats.AllocCycles,
	}
}

// WaySizes returns each way's current slot count (Figure 12 reports the
// byte sizes: slots × EntryBytes).
func (t *Table) WaySizes() []uint64 {
	sizes := make([]uint64, len(t.ways))
	for i, w := range t.ways {
		sizes[i] = w.capacity()
	}
	return sizes
}

// WayChunkBytes returns each way's current chunk size.
func (t *Table) WayChunkBytes() []uint64 {
	cs := make([]uint64, len(t.ways))
	for i, w := range t.ways {
		cs[i] = w.store.ChunkBytes()
	}
	return cs
}

// Len returns the number of clustered entries stored, including any held
// in the software stash.
func (t *Table) Len() uint64 {
	n := uint64(len(t.stash))
	for _, w := range t.ways {
		n += w.occ
	}
	return n
}

// PageSize returns the page size this table translates.
func (t *Table) PageSize() addr.PageSize { return t.size }

// Resizing reports whether any way has a resize in flight.
func (t *Table) Resizing() bool {
	for _, w := range t.ways {
		if w.resizing {
			return true
		}
	}
	return false
}

// lookupSlot finds the way index and slot index holding key. One CRC pass
// serves all W probes (hashfn.Mixer); each way reuses its hash across the
// old and new index masks during resizes.
func (t *Table) lookupSlot(key uint64) (int, uint64, bool) {
	crc := t.mixer.CRC(key)
	for i, w := range t.ways {
		idx := w.locateHash(t.mixer.HashAt(i, crc))
		if w.slots[idx].Key == key {
			return i, idx, true
		}
	}
	return 0, 0, false
}

// stashIndex returns the stash position of key, or -1.
func (t *Table) stashIndex(key uint64) int {
	for i, e := range t.stash {
		if e.Key == key {
			return i
		}
	}
	return -1
}

// Lookup returns the value stored for key, consulting the software
// stash after the W hash probes (the OS-walked overflow path).
func (t *Table) Lookup(key uint64) (uint64, bool) {
	t.stats.Lookups++
	if i, idx, ok := t.lookupSlot(key); ok {
		return t.ways[i].slots[idx].Val, true
	}
	if si := t.stashIndex(key); si >= 0 {
		return t.stash[si].Val, true
	}
	return 0, false
}

// Walk is Lookup additionally returning the physical address of the probe
// slot that holds key, with the same statistics footprint. A
// stash-resident entry reports way 0's probe address (WayOf does not see
// the stash).
func (t *Table) Walk(key uint64) (uint64, addr.PhysAddr, bool) {
	t.stats.Lookups++ // mirrors Lookup
	if i, idx, ok := t.lookupSlot(key); ok {
		w := t.ways[i]
		return w.slots[idx].Val, w.slotPA(idx), true
	}
	if si := t.stashIndex(key); si >= 0 {
		return t.stash[si].Val, t.ProbeAddr(0, key), true
	}
	return 0, 0, false
}

// WayOf returns the way index currently holding key, and whether it is in
// a way (stash-resident entries are not).
func (t *Table) WayOf(key uint64) (int, bool) {
	i, _, ok := t.lookupSlot(key)
	return i, ok
}

// ProbeAddr returns the physical address of way i's probe slot for key.
func (t *Table) ProbeAddr(i int, key uint64) addr.PhysAddr {
	w := t.ways[i]
	return w.slotPA(w.locate(key))
}

// Insert stores key→val, resizing as needed. key must be absent, from
// the ways and the stash alike (pt.SizeTable.Insert): Insert does not
// probe for it. It returns the cycle cost of the physical allocations a
// resize the insert triggers makes.
func (t *Table) Insert(key, val uint64) (uint64, error) {
	// A stalled migration is not fatal to this insert: the stuck entry was
	// rolled back and stays reachable; a later tick retries it.
	_ = t.rehashTick() //mehpt:allow errwrap -- a stalled migration is a scheduling hint, not a failure (see comment above)
	kicks, err := t.place(cuckoo.Entry{Key: key, Val: val}, -1, true)
	if err != nil {
		return 0, err
	}
	t.stats.Inserts++
	t.stats.Reinsertions.Add(kicks)
	t.drainStash()
	cycles := t.maybeResize()
	t.notePeak()
	return cycles, nil
}

// SetValue overwrites the value of the present key, in its way or in the
// stash, counting nothing.
func (t *Table) SetValue(key, val uint64) {
	if i, idx, ok := t.lookupSlot(key); ok {
		t.ways[i].slots[idx].Val = val
	} else if si := t.stashIndex(key); si >= 0 {
		t.stash[si].Val = val
	}
}

// Delete removes key and returns the allocation cycles spent by the
// resizes it triggered.
func (t *Table) Delete(key uint64) uint64 {
	i, idx, ok := t.lookupSlot(key)
	if !ok {
		if si := t.stashIndex(key); si >= 0 {
			t.stash = append(t.stash[:si], t.stash[si+1:]...)
			t.stats.Deletes++
		}
		return 0
	}
	w := t.ways[i]
	w.slots[idx].Key = cuckoo.EmptyKey
	w.slots[idx].Val = 0
	w.occ--
	t.stats.Deletes++
	return t.maybeResize()
}

// pickInsertWay implements Section IV-D's weighted random insertion: way i
// is chosen with probability free_i / Σ free, and a way that is larger than
// another way and already past the upsize threshold gets weight zero.
func (t *Table) pickInsertWay(exclude int) int {
	if !t.cfg.WeightedInsert {
		return t.pickUniform(exclude)
	}
	var weights [8]uint64 // Ways is small (3); avoid allocation
	var sum uint64
	minSize := t.minWaySize()
	for i, w := range t.ways {
		if i == exclude {
			continue
		}
		f := w.free()
		if w.capacity() > minSize && w.occupancy() >= t.cfg.UpsizeAt {
			f = 0
		}
		weights[i] = f
		sum += f
	}
	if sum == 0 {
		return t.pickUniform(exclude)
	}
	r := uint64(t.rng.Int63n(int64(sum)))
	for i := range t.ways {
		if i == exclude {
			continue
		}
		if r < weights[i] {
			return i
		}
		r -= weights[i]
	}
	return t.pickUniform(exclude) // unreachable
}

func (t *Table) pickUniform(exclude int) int {
	if exclude < 0 {
		return t.rng.Intn(len(t.ways))
	}
	i := t.rng.Intn(len(t.ways) - 1)
	if i >= exclude {
		i++
	}
	return i
}

func (t *Table) minWaySize() uint64 {
	min := t.ways[0].capacity()
	for _, w := range t.ways[1:] {
		if c := w.capacity(); c < min {
			min = c
		}
	}
	return min
}

func (t *Table) maxWaySize() uint64 {
	max := t.ways[0].capacity()
	for _, w := range t.ways[1:] {
		if c := w.capacity(); c > max {
			max = c
		}
	}
	return max
}

// undo is one journal record of tryPlace's displacement chain.
type undo struct {
	w    *way
	idx  uint64
	prev cuckoo.Entry
}

// tryPlace attempts to insert e, displacing occupants cuckoo-style for at
// most MaxKicks displacements. weighted selects the weighted policy for
// the first placement; kicks always use uniform-other. Every slot write is
// journaled; if the chain overflows, the journal is replayed in reverse —
// restored entries are republished to the OnWayChange hook — and the table
// is left exactly as it was: a failed placement never evicts a previously
// accepted entry.
func (t *Table) tryPlace(e cuckoo.Entry, exclude int, weighted bool) (int, bool) {
	journal := t.journal[:0]
	kicks := 0
	placed := false
	for {
		var i int
		if weighted && kicks == 0 {
			i = t.pickInsertWay(exclude)
		} else {
			i = t.pickUniform(exclude)
		}
		w := t.ways[i]
		idx := w.locate(e.Key)
		prev := w.slots[idx]
		journal = append(journal, undo{w, idx, prev})
		w.slots[idx] = e
		t.noteWay(e.Key, i)
		if prev.Key == cuckoo.EmptyKey {
			// Only the chain's final empty-slot placement increments a way:
			// every intermediate way lost its victim but gained the incomer.
			w.occ++
			placed = true
			break
		}
		t.stats.Kicks++
		kicks++
		if kicks > t.cfg.MaxKicks {
			for j := len(journal) - 1; j >= 0; j-- {
				u := journal[j]
				u.w.slots[u.idx] = u.prev
				if u.prev.Key != cuckoo.EmptyKey {
					t.noteWay(u.prev.Key, u.w.idx)
				}
			}
			break
		}
		e, exclude = prev, i
	}
	// Keep the grown backing array but drop its references; the scratch is
	// reused by the next insertion.
	clear(journal)
	t.journal = journal[:0]
	return kicks, placed
}

// place inserts e, forcing progress between bounded placement attempts
// (breakChain: drain in-flight resizes or upsize the smallest way). On
// failure the table is unchanged and the error wraps ErrTableFull plus the
// underlying cause.
func (t *Table) place(e cuckoo.Entry, exclude int, weighted bool) (int, error) {
	if kicks, ok := t.tryPlace(e, exclude, weighted); ok {
		return kicks, nil
	}
	for attempt := 0; attempt < 4; attempt++ {
		if err := t.breakChain(); err != nil {
			return 0, err
		}
		if kicks, ok := t.tryPlace(e, -1, false); ok {
			return kicks, nil
		}
	}
	return 0, ErrTableFull
}

// placeMigration places an entry displaced by a resize or rebuilt by a
// transition. Unlike place it never forces progress: the caller is already
// inside the resize machinery, and a nested drain or upsize could invalidate
// the state the caller must roll back into on failure. A bounded number of
// fresh chains is attempted instead; each rolls back cleanly.
func (t *Table) placeMigration(e cuckoo.Entry, exclude int) (int, error) {
	if kicks, ok := t.tryPlace(e, exclude, false); ok {
		return kicks, nil
	}
	for attempt := 0; attempt < 3; attempt++ {
		if kicks, ok := t.tryPlace(e, -1, false); ok {
			return kicks, nil
		}
	}
	return 0, fmt.Errorf("displacement chain overflow during migration (max kicks %d)", t.cfg.MaxKicks)
}

// noteWay publishes a placement to the OnWayChange hook.
func (t *Table) noteWay(key uint64, way int) {
	if t.cfg.OnWayChange != nil {
		t.cfg.OnWayChange(key, t.size, way)
	}
}

// breakChain makes progress when a displacement chain exceeds MaxKicks:
// drain in-flight resizes; if none, force-upsize the smallest way.
func (t *Table) breakChain() error {
	if t.Resizing() {
		if err := t.drainResizes(); err != nil {
			return fmt.Errorf("%w: %w", ErrTableFull, err)
		}
		return nil
	}
	// Upsize the smallest way (always permitted by the balance rule).
	smallest := 0
	for i, w := range t.ways {
		if w.capacity() < t.ways[smallest].capacity() {
			smallest = i
		}
	}
	_, err := t.upsizeWay(smallest)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrTableFull, err)
	}
	return nil
}

// stashPut spills an entry to the software stash (a degraded resize could
// not re-place it). The entry stays fully visible to Lookup/Delete and is
// drained back by later inserts.
func (t *Table) stashPut(e cuckoo.Entry) {
	t.stash = append(t.stash, e)
	t.stats.Stashed++
}

// drainStash opportunistically moves stashed entries back into the ways,
// stopping at the first one that still does not fit.
func (t *Table) drainStash() {
	for len(t.stash) > 0 {
		e := t.stash[len(t.stash)-1]
		kicks, ok := t.tryPlace(e, -1, false)
		if !ok {
			return
		}
		t.stash = t.stash[:len(t.stash)-1]
		t.stats.Reinsertions.Add(kicks)
	}
}

// rehashTick advances every in-flight resize by RehashBatch elements,
// reusing the OS invocation the triggering insert provides (Section II-B).
// A stalled migration stops that way's progress for this tick — the entry
// was rolled back and the pointer rewound — and the first stall error is
// returned; later ticks retry with fresh displacement choices.
func (t *Table) rehashTick() error {
	var firstErr error
	for _, w := range t.ways {
		if !w.resizing {
			continue
		}
		moved := 0
		for w.resizing && moved < t.cfg.RehashBatch && w.ptr < w.size {
			ok, err := t.migrateOne(w)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				break
			}
			if ok {
				moved++
			}
		}
		if w.resizing && w.ptr >= w.size {
			w.finishResize()
			t.notePeak()
		}
	}
	return firstErr
}

// migrateOne rehashes the entry under w's rehash pointer. It returns true
// if an element was processed (as opposed to skipping an empty slot). On
// failure the step is rolled back exactly — entry restored, pointer rewound
// — and the error wraps ErrMigrationFailed.
func (t *Table) migrateOne(w *way) (bool, error) {
	p := w.ptr
	w.ptr++
	e := w.slots[p]
	if e.Key == cuckoo.EmptyKey {
		return false, nil
	}
	h := w.fn.Hash(e.Key)
	newIdx := h & (w.newSize - 1)
	inPlace := w.pending == nil
	if newIdx == p && inPlace {
		// The extra hash bit is 0: the entry stays put (Figure 5b). This is
		// the ~50% of entries in-place resizing does not move.
		if w.up {
			t.stats.UpsizeStayed++
		}
		t.stats.Reinsertions.Add(0)
		return true, nil
	}
	w.slots[p].Key = cuckoo.EmptyKey
	w.slots[p].Val = 0
	kicks := 0
	if w.slots[newIdx].Key == cuckoo.EmptyKey {
		w.slots[newIdx] = e
	} else {
		// Downsize collision (Figure 5f) or clash with an entry inserted
		// during the resize: cuckoo the incoming entry into another way.
		w.occ--
		var err error
		kicks, err = t.placeMigration(e, w.idx)
		if err != nil {
			w.occ++
			w.slots[p] = e
			w.ptr = p
			t.stats.Stalls++
			return false, fmt.Errorf("%w: %w", ErrMigrationFailed, err)
		}
		t.stats.Kicks++
		kicks++ // count the displacement out of this way
	}
	t.stats.MovesTotal++
	if w.up {
		t.stats.UpsizeMoved++
	}
	t.stats.Reinsertions.Add(kicks)
	return true, nil
}

// drainResizes completes all in-flight resizes synchronously. A stalled
// migration stops the drain with the resize still in flight (and the table
// valid); the caller decides whether to retry or surface the error.
func (t *Table) drainResizes() error {
	for t.Resizing() {
		if err := t.rehashTick(); err != nil {
			return err
		}
	}
	return nil
}

// DrainResizes completes any in-flight gradual resizes (process teardown,
// test determinism). The error (if any) wraps ErrMigrationFailed; the
// table remains valid and mid-resize.
func (t *Table) DrainResizes() error { return t.drainResizes() }

// Free releases all physical memory held by the table (process exit). A
// drain failure is ignored: every way's stores are freed regardless.
func (t *Table) Free() {
	t.DrainResizes() //mehpt:allow errwrap -- teardown: ways and pending stores are freed below regardless
	for _, w := range t.ways {
		w.store.Free()
		if w.pending != nil {
			w.pending.Free()
		}
	}
}
