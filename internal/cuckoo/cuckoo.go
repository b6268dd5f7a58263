// Package cuckoo implements a W-way elastic cuckoo hash table — the core
// algorithm of Elastic Cuckoo Page Tables (Skarlatos et al., ASPLOS'20) that
// the paper's baseline and contribution both build on.
//
// The table is set-associative: each of the W ways is an array of slots and
// has its own hash function. An element lives in exactly one way, at the
// index its hash selects there. Insertion kicks out conflicting occupants and
// re-inserts them into other ways (cuckoo hashing). Resizing is *elastic*:
// a new table twice (or half) the size is allocated, and entries migrate
// gradually — one batch per insertion — tracked by a per-way rehash pointer
// that splits each old way into a migrated and a live region.
//
// This package implements the out-of-place variant used by the ECPT baseline
// and by general-purpose uses (e.g. the key-value store example). The
// in-place, per-way, chunked variant — the paper's contribution — lives in
// package mehpt.
package cuckoo

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/hashfn"
)

// EmptyKey marks an unoccupied slot. Virtual page numbers are at most
// 2^36 for 48-bit addresses, so the sentinel can never collide with a key.
const EmptyKey = ^uint64(0)

// Entry is one table slot: an 8-byte packed key tag plus value, mirroring
// the paper's compacted HPT entries (tag stored in unused PTE bits).
type Entry struct {
	Key uint64
	Val uint64
}

// ErrTableFull is returned when an insertion cannot be placed even after
// forcing resizes — the embedder's AllocWays hook refused to back a larger
// table (memory pressure, or a cap it enforces). The error chain carries the underlying
// cause (e.g. phys.ErrOutOfMemory through the embedder's AllocWays hook);
// the rejected entry is never left partially placed.
var ErrTableFull = errors.New("cuckoo: table full")

// ErrMigrationFailed is returned when the gradual rehash cannot re-place a
// displaced entry in the resize target. The failed migration step is rolled
// back — the displaced entry is restored and the rehash pointer rewound —
// so the table stays valid and the migration retries on a later insertion
// with fresh displacement choices.
var ErrMigrationFailed = errors.New("cuckoo: gradual-rehash migration failed")

// Config parameterizes a Table.
type Config struct {
	Ways           int     // number of ways W (the paper uses 3)
	InitialEntries uint64  // initial per-way slot count, a power of two
	UpsizeAt       float64 // occupancy ratio triggering an upsize (0.6)
	DownsizeAt     float64 // occupancy ratio triggering a downsize (0.2)
	MaxKicks       int     // bound on cuckoo displacement chains
	RehashBatch    int     // entries migrated per insertion during a resize
	HashSeed       uint64  // base seed for the per-way hash family
	Rand           *rand.Rand
	Hooks          Hooks
}

// Hooks let the embedding page table observe and cost the table's physical
// behaviour without the algorithm knowing about physical memory.
type Hooks struct {
	// AllocWays is called when a resize needs W new ways of the given
	// per-way slot count. Returning an error aborts the resize attempt
	// (e.g. contiguous allocation failed); the table stays at its size.
	AllocWays func(entriesPerWay uint64) error
	// FreeWays is called when the old ways are released after a resize.
	FreeWays func(entriesPerWay uint64)
	// OnReinsertions is called once per top-level insert or rehash with the
	// number of displacements it needed (Figure 16's distribution).
	OnReinsertions func(n int)
	// OnMove is called for every entry migrated between tables by the
	// gradual rehash (Figure 13's data-movement metric).
	OnMove func()
}

// Stats aggregates operation counts.
type Stats struct {
	Inserts    uint64
	Lookups    uint64
	Deletes    uint64
	Kicks      uint64 // total cuckoo re-insertions
	Moves      uint64 // entries migrated by gradual rehash
	Upsizes    uint64
	Downsizes  uint64
	FailedUps  uint64 // upsizes aborted by allocation failure
	Stalls     uint64 // migration steps rolled back (retried later)
	ProbeSlots uint64 // slots examined by lookups
}

// way is one hash way of a (sub)table.
type way struct {
	slots []Entry
	fn    hashfn.Func
}

func newWay(entries uint64, fn hashfn.Func) *way {
	w := &way{slots: make([]Entry, entries), fn: fn}
	for i := range w.slots {
		w.slots[i].Key = EmptyKey
	}
	return w
}

func (w *way) size() uint64 { return uint64(len(w.slots)) }

// Table is the elastic cuckoo hash table. It is not safe for concurrent use.
type Table struct {
	// Not in the snapshot: RestoreTable requires the caller to re-supply the same Config (incl. a repositioned Rand)
	cfg Config
	// Not in the snapshot: pure function of cfg.HashSeed/Ways, re-derived by RestoreTable
	fns []hashfn.Func
	// Not in the snapshot: rebuilt from fns by RestoreTable
	mixer *hashfn.Mixer // family-wide single-CRC hashing (read-only)
	cur   []*way        // current table, one per way
	next  []*way        // resize target, nil when not resizing
	// rehashPtr[i] splits cur[i] into migrated [0,p) and live [p,size).
	rehashPtr []uint64
	occupied  uint64
	stats     Stats
	// Not in the snapshot: owned and positioned by whoever supplied Config.Rand; RestoreTable panics without one
	rng *rand.Rand
	// journal is tryPlace's displacement log, reused across insertions so
	// the write path does not allocate in steady state. Chains are bounded
	// by MaxKicks, and tryPlace is never re-entered while a chain is live.
	// Not in the snapshot: scratch buffer, cleared at the end of every insert; always empty between operations
	journal []undo
}

// New creates an empty table, panicking if the initial ways cannot be
// backed. Callers that install an AllocWays hook and need to survive
// memory pressure at construction time use Build instead.
func New(cfg Config) *Table {
	t, err := Build(cfg)
	if err != nil {
		panic(fmt.Sprintf("cuckoo: initial allocation failed: %v", err))
	}
	return t
}

// Build creates an empty table, returning an error if the embedder's
// AllocWays hook cannot back the initial ways — the one construction
// failure that is a runtime memory-pressure condition rather than a
// programmer error. Invalid configuration still panics, since all callers
// construct configs from compile-time constants.
func Build(cfg Config) (*Table, error) {
	if cfg.Ways < 2 {
		panic("cuckoo: need at least 2 ways")
	}
	if cfg.InitialEntries == 0 || cfg.InitialEntries&(cfg.InitialEntries-1) != 0 {
		panic(fmt.Sprintf("cuckoo: initial entries %d must be a power of two", cfg.InitialEntries))
	}
	cfg = normalizeConfig(cfg)
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(int64(cfg.HashSeed) + 1))
	}
	t := &Table{
		cfg:       cfg,
		fns:       hashfn.Family(cfg.HashSeed, cfg.Ways),
		cur:       make([]*way, cfg.Ways),
		rehashPtr: make([]uint64, cfg.Ways),
		rng:       rng,
	}
	t.mixer = hashfn.NewMixer(t.fns)
	for i := range t.cur {
		t.cur[i] = newWay(cfg.InitialEntries, t.fns[i])
	}
	if t.cfg.Hooks.AllocWays != nil {
		if err := t.cfg.Hooks.AllocWays(cfg.InitialEntries); err != nil {
			return nil, fmt.Errorf("cuckoo: initial way allocation: %w", err)
		}
	}
	return t, nil
}

// Len returns the number of elements stored.
func (t *Table) Len() uint64 { return t.occupied }

// EntriesPerWay returns the current per-way slot count (of the table being
// migrated *into* if a resize is in flight, since that is the steady-state
// size).
func (t *Table) EntriesPerWay() uint64 {
	if t.next != nil {
		return t.next[0].size()
	}
	return t.cur[0].size()
}

// WaySizes returns the slots per way of the current ways and, during a
// resize, of the target ways.
func (t *Table) WaySizes() []uint64 {
	if t.next != nil {
		return []uint64{t.cur[0].size(), t.next[0].size()}
	}
	return []uint64{t.cur[0].size()}
}

// Capacity returns the total live slot count across ways. During a resize
// this counts the target table, matching how occupancy thresholds are
// evaluated.
func (t *Table) Capacity() uint64 {
	return t.EntriesPerWay() * uint64(t.cfg.Ways)
}

// Stats returns the accumulated operation counts.
func (t *Table) Stats() Stats { return t.stats }

// occupancy is evaluated against the resize-target capacity.
func (t *Table) occupancy() float64 {
	return float64(t.occupied) / float64(t.Capacity())
}

// locateHash returns the way array and index at which a key hashing to h in
// way i would live, honouring the rehash pointer during resizes: hash keys
// below the pointer have been migrated, so the new table is authoritative
// for them. Both tables of way i use the same hash function and power-of-two
// sizes, so one hash value serves both — only the mask differs (the paper's
// upsize-bit property).
func (t *Table) locateHash(i int, h uint64) (*way, uint64) {
	w := t.cur[i]
	idx := h & (w.size() - 1)
	if t.next != nil && idx < t.rehashPtr[i] {
		nw := t.next[i]
		return nw, h & (nw.size() - 1)
	}
	return w, idx
}

// locate is locateHash with the hash computed here. Multi-way loops hoist
// the shared CRC through t.mixer instead of calling this per way.
func (t *Table) locate(i int, key uint64) (*way, uint64) {
	return t.locateHash(i, t.fns[i].Hash(key))
}

// Slot locates one probe slot: index Idx of way Way, in the resize target
// when InNext — the information a hardware walker derives from the rehash
// pointers, which the embedding page table needs to compute probe
// addresses.
type Slot struct {
	Way    int
	InNext bool
	Idx    uint64
}

// WayOf returns the way index currently holding key.
func (t *Table) WayOf(key uint64) (int, bool) {
	crc := t.mixer.CRC(key)
	for i := 0; i < t.cfg.Ways; i++ {
		w, idx := t.locateHash(i, t.mixer.HashAt(i, crc))
		if w.slots[idx].Key == key {
			return i, true
		}
	}
	return 0, false
}

// Lookup returns the value stored for key.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	v, _, ok := t.LookupSlot(key)
	return v, ok
}

// LookupSlot is Lookup additionally reporting the slot that hit — the
// fused walk prices its probe from it without hashing key a second time.
// Its statistics footprint is identical to Lookup's.
func (t *Table) LookupSlot(key uint64) (uint64, Slot, bool) {
	t.stats.Lookups++
	crc := t.mixer.CRC(key)
	for i := 0; i < t.cfg.Ways; i++ {
		w, idx := t.locateHash(i, t.mixer.HashAt(i, crc))
		t.stats.ProbeSlots++
		if w.slots[idx].Key == key {
			return w.slots[idx].Val, Slot{Way: i, InNext: w != t.cur[i], Idx: idx}, true
		}
	}
	return 0, Slot{}, false
}

// Replace overwrites the value of key, if present, in place, and returns
// the value it replaced. It counts nothing, draws no randomness and never
// resizes.
func (t *Table) Replace(key, val uint64) (uint64, bool) {
	crc := t.mixer.CRC(key)
	for i := 0; i < t.cfg.Ways; i++ {
		w, idx := t.locateHash(i, t.mixer.HashAt(i, crc))
		if w.slots[idx].Key == key {
			old := w.slots[idx].Val
			w.slots[idx].Val = val
			return old, true
		}
	}
	return 0, false
}

// Insert adds key with value val. If key is already present its value is
// replaced. It returns the number of cuckoo re-insertions performed.
func (t *Table) Insert(key, val uint64) (int, error) {
	// Reuse the slot if the key is already present (remap).
	crc := t.mixer.CRC(key)
	for i := 0; i < t.cfg.Ways; i++ {
		w, idx := t.locateHash(i, t.mixer.HashAt(i, crc))
		if w.slots[idx].Key == key {
			w.slots[idx].Val = val
			return 0, nil
		}
	}
	if t.next != nil {
		if err := t.rehashStep(t.cfg.RehashBatch); err != nil {
			// A stalled migration is not fatal to this insert: the stuck
			// entry was rolled back into the old table and stays reachable,
			// and the rewound rehash pointer makes a later insertion retry
			// it with fresh displacement choices.
			t.stats.Stalls++
		}
	}
	kicks, err := t.place(Entry{Key: key, Val: val}, -1)
	if err != nil {
		return kicks, err
	}
	t.stats.Inserts++
	t.occupied++
	if t.cfg.Hooks.OnReinsertions != nil {
		t.cfg.Hooks.OnReinsertions(kicks)
	}
	t.maybeResize()
	return kicks, nil
}

// undo is one journal record of tryPlace's displacement chain.
type undo struct {
	w    *way
	idx  uint64
	prev Entry
}

// tryPlace attempts to insert e starting at a random way other than
// exclude, displacing occupants cuckoo-style for at most MaxKicks
// displacements. Every slot write is journaled; if the chain overflows,
// the journal is replayed in reverse and the table is left exactly as it
// was — a failed placement never evicts a previously accepted entry.
// Kick statistics and hooks still record the attempted displacements (the
// hardware/OS did that work even when the chain was abandoned).
func (t *Table) tryPlace(e Entry, exclude int) (int, bool) {
	journal := t.journal[:0]
	kicks := 0
	placed := false
	for {
		i := t.pickWay(exclude)
		w, idx := t.locate(i, e.Key)
		prev := w.slots[idx]
		journal = append(journal, undo{w, idx, prev})
		w.slots[idx] = e
		if prev.Key == EmptyKey {
			placed = true
			break
		}
		t.stats.Kicks++
		kicks++
		if kicks > t.cfg.MaxKicks {
			for j := len(journal) - 1; j >= 0; j-- {
				journal[j].w.slots[journal[j].idx] = journal[j].prev
			}
			break
		}
		e, exclude = prev, i
	}
	// Keep the grown backing array but drop the *way references so the
	// scratch buffer never pins a retired table in memory.
	clear(journal)
	t.journal = journal[:0]
	return kicks, placed
}

// place inserts e, forcing progress between bounded placement attempts:
// drain the in-flight resize if there is one, start an upsize otherwise.
// On failure the table is unchanged — every partial displacement chain was
// rolled back — and the error wraps ErrTableFull plus the underlying cause
// (allocation failure, migration failure, or an AllocWays refusal).
func (t *Table) place(e Entry, exclude int) (int, error) {
	if kicks, ok := t.tryPlace(e, exclude); ok {
		return kicks, nil
	}
	for attempt := 0; attempt < 3; attempt++ {
		if t.next != nil {
			if err := t.drainResize(); err != nil {
				return 0, fmt.Errorf("%w: %w", ErrTableFull, err)
			}
		} else if err := t.forceUpsize(); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrTableFull, err)
		}
		if kicks, ok := t.tryPlace(e, -1); ok {
			return kicks, nil
		}
	}
	return 0, ErrTableFull
}

// placeMigration places an entry displaced by the gradual rehash. Unlike
// place it never forces progress: the caller is already inside the resize
// machinery, and a nested drain could complete the resize and free the
// very ways the caller must roll back into on failure. A bounded number of
// fresh chains is attempted instead; each rolls back cleanly.
func (t *Table) placeMigration(e Entry, exclude int) (int, error) {
	if kicks, ok := t.tryPlace(e, exclude); ok {
		return kicks, nil
	}
	for attempt := 0; attempt < 3; attempt++ {
		if kicks, ok := t.tryPlace(e, -1); ok {
			return kicks, nil
		}
	}
	return 0, fmt.Errorf("displacement chain overflow in resize target (W=%d, max kicks %d)",
		t.cfg.Ways, t.cfg.MaxKicks)
}

// forceUpsize starts an upsize regardless of occupancy, used to break
// over-long displacement chains. The AllocWays hook may still refuse it.
func (t *Table) forceUpsize() error {
	return t.startResize(t.cur[0].size() * 2)
}

func (t *Table) pickWay(exclude int) int {
	if exclude < 0 {
		return t.rng.Intn(t.cfg.Ways)
	}
	i := t.rng.Intn(t.cfg.Ways - 1)
	if i >= exclude {
		i++
	}
	return i
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(key uint64) bool {
	for i := 0; i < t.cfg.Ways; i++ {
		w, idx := t.locate(i, key)
		t.stats.ProbeSlots++
		if w.slots[idx].Key == key {
			w.slots[idx].Key = EmptyKey
			w.slots[idx].Val = 0
			t.occupied--
			t.stats.Deletes++
			t.maybeResize()
			return true
		}
	}
	return false
}

// maybeResize starts an upsize or downsize if occupancy crossed a threshold
// and no resize is already in flight.
func (t *Table) maybeResize() {
	if t.next != nil {
		return
	}
	size := t.cur[0].size()
	switch {
	case t.occupancy() > t.cfg.UpsizeAt:
		if err := t.startResize(size * 2); err != nil {
			t.stats.FailedUps++
		}
	case t.occupancy() < t.cfg.DownsizeAt && size > t.cfg.InitialEntries:
		// Downsizing can always find memory (smaller allocation).
		_ = t.startResize(size / 2) //mehpt:allow errwrap -- downsize failure is benign; the table just stays large
	}
}

// startResize allocates the target table and begins gradual migration.
func (t *Table) startResize(newEntries uint64) error {
	if t.cfg.Hooks.AllocWays != nil {
		if err := t.cfg.Hooks.AllocWays(newEntries); err != nil {
			return err
		}
	}
	t.next = make([]*way, t.cfg.Ways)
	for i := range t.next {
		t.next[i] = newWay(newEntries, t.fns[i])
	}
	for i := range t.rehashPtr {
		t.rehashPtr[i] = 0
	}
	if newEntries > t.cur[0].size() {
		t.stats.Upsizes++
	} else {
		t.stats.Downsizes++
	}
	return nil
}

// rehashStep migrates up to batch entries from the live regions of the old
// ways into the new table, advancing the rehash pointers round-robin. On a
// migration failure the step stops early; the failed entry was rolled back
// and the resize stays in flight, to be retried by a later step.
func (t *Table) rehashStep(batch int) error {
	for n := 0; n < batch && t.next != nil; {
		advanced := false
		for i := 0; i < t.cfg.Ways && n < batch; i++ {
			if t.rehashPtr[i] >= t.cur[i].size() {
				continue
			}
			if err := t.migrateOne(i); err != nil {
				return err
			}
			n++
			advanced = true
		}
		if !advanced {
			t.finishResize()
			return nil
		}
	}
	if t.next != nil && t.rehashDone() {
		t.finishResize()
	}
	return nil
}

// migrateOne rehashes the entry under way i's rehash pointer into the new
// table and advances the pointer. On failure the step is rolled back
// exactly — entry restored, pointer rewound — and the error wraps
// ErrMigrationFailed.
func (t *Table) migrateOne(i int) error {
	w := t.cur[i]
	p := t.rehashPtr[i]
	e := w.slots[p]
	t.rehashPtr[i] = p + 1
	if e.Key == EmptyKey {
		return nil
	}
	w.slots[p].Key = EmptyKey
	// Insert into the same way of the new table; conflicts cuckoo onward.
	nw := t.next[i]
	idx := nw.fn.Index(e.Key, nw.size())
	kicks := 0
	if nw.slots[idx].Key == EmptyKey {
		nw.slots[idx] = e
	} else {
		victim := nw.slots[idx]
		nw.slots[idx] = e
		t.stats.Kicks++
		var err error
		kicks, err = t.placeMigration(victim, i)
		if err != nil {
			nw.slots[idx] = victim
			w.slots[p] = e
			t.rehashPtr[i] = p
			return fmt.Errorf("%w: %w", ErrMigrationFailed, err)
		}
		kicks++ // count the displacement out of the target slot
	}
	t.stats.Moves++
	if t.cfg.Hooks.OnMove != nil {
		t.cfg.Hooks.OnMove()
	}
	if t.cfg.Hooks.OnReinsertions != nil {
		t.cfg.Hooks.OnReinsertions(kicks)
	}
	return nil
}

func (t *Table) rehashDone() bool {
	for i := range t.rehashPtr {
		if t.rehashPtr[i] < t.cur[i].size() {
			return false
		}
	}
	return true
}

// drainResize completes an in-flight resize synchronously. A migration
// failure stops the drain with the resize still in flight (and the table
// valid); the caller decides whether to retry or surface the error.
func (t *Table) drainResize() error {
	for t.next != nil {
		if err := t.rehashStep(1024); err != nil {
			return err
		}
	}
	return nil
}

// DrainResize completes any in-flight gradual resize. Page-table callers use
// it when tearing down a process. The error (if any) wraps
// ErrMigrationFailed; the table remains valid and mid-resize.
func (t *Table) DrainResize() error { return t.drainResize() }

func (t *Table) finishResize() {
	oldEntries := t.cur[0].size()
	t.cur = t.next
	t.next = nil
	if t.cfg.Hooks.FreeWays != nil {
		t.cfg.Hooks.FreeWays(oldEntries)
	}
}

// Range calls f for every element until f returns false. Order is
// unspecified. The table must not be mutated during iteration.
func (t *Table) Range(f func(key, val uint64) bool) {
	visit := func(ws []*way, skipMigrated bool) bool {
		for i, w := range ws {
			start := uint64(0)
			if skipMigrated {
				start = t.rehashPtr[i]
			}
			for idx := start; idx < w.size(); idx++ {
				if w.slots[idx].Key == EmptyKey {
					continue
				}
				if !f(w.slots[idx].Key, w.slots[idx].Val) {
					return false
				}
			}
		}
		return true
	}
	if t.next != nil {
		if !visit(t.next, false) {
			return
		}
		visit(t.cur, true)
		return
	}
	visit(t.cur, false)
}
