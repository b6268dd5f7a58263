package mehpt

import (
	"errors"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/cuckoo"
	"repro/internal/pt"
)

// maybeResize applies the resizing policy after an insert or delete and
// returns the allocation cycles spent starting resizes.
//
// Per-way mode (Section IV-D): a way whose occupancy crosses the upsize
// threshold is resized alone, but only if it is not already larger than
// another way; symmetrically for downsizes. All-way mode (the baseline
// policy, used by the ablation): total occupancy drives a resize of every
// way together.
func (t *Table) maybeResize() uint64 {
	if t.cfg.PerWay {
		return t.maybeResizePerWay()
	}
	return t.maybeResizeAllWays()
}

func (t *Table) maybeResizePerWay() uint64 {
	var cycles uint64
	minSize, maxSize := t.minWaySize(), t.maxWaySize()
	for i, w := range t.ways {
		if w.resizing {
			continue
		}
		switch {
		case w.occupancy() > t.cfg.UpsizeAt:
			// Balance rule: the candidate cannot already be larger than
			// another way.
			if w.capacity() > minSize {
				continue
			}
			c, err := t.upsizeWay(i)
			cycles += c
			if err != nil {
				t.stats.FailedUpsizes++
			}
		case w.occupancy() < t.cfg.DownsizeAt && w.capacity() > t.cfg.InitialEntries:
			// Balance rule: the candidate cannot already be smaller than
			// another way.
			if w.capacity() < maxSize {
				continue
			}
			cycles += t.downsizeWay(i)
		}
	}
	return cycles
}

func (t *Table) maybeResizeAllWays() uint64 {
	if t.Resizing() {
		return 0
	}
	var occ, cap uint64
	for _, w := range t.ways {
		occ += w.occ
		cap += w.capacity()
	}
	ratio := float64(occ) / float64(cap)
	var cycles uint64
	switch {
	case ratio > t.cfg.UpsizeAt:
		for i := range t.ways {
			c, err := t.upsizeWay(i)
			cycles += c
			if err != nil {
				t.stats.FailedUpsizes++
				break
			}
		}
	case ratio < t.cfg.DownsizeAt && t.ways[0].capacity() > t.cfg.InitialEntries:
		for i := range t.ways {
			cycles += t.downsizeWay(i)
		}
	}
	return cycles
}

// upsizeWay doubles way i. Depending on configuration and L2P headroom this
// is (a) an in-place gradual resize over extended chunks, (b) an eager
// out-of-place rebuild at the next chunk size (a chunk-size transition), or
// (c) a gradual out-of-place resize into a separate pending store (the
// no-in-place ablation).
//
// Under memory pressure the in-place paths degrade down a ladder instead of
// failing outright: if the extension or transition cannot allocate, the way
// retries out of place over the full chunk ladder — smaller rungs trade L2P
// entries for allocability — and only if that also fails is the resize
// deferred with ErrResizeFailed, leaving the way valid at its old geometry
// for maybeResize to retry later.
func (t *Table) upsizeWay(i int) (uint64, error) {
	w := t.ways[i]
	if w.resizing {
		if err := t.drainWay(w); err != nil {
			return 0, fmt.Errorf("%w: way %d: %w", ErrResizeFailed, i, err)
		}
	}
	newSize := w.size * 2
	targetBytes := newSize * pt.EntryBytes

	if t.cfg.InPlace {
		if w.store.CanExtendInPlace(targetBytes) {
			cycles, err := w.store.Extend(targetBytes)
			t.noteAlloc(w.store.ChunkBytes(), cycles)
			if err == nil {
				w.beginResize(newSize)
				t.stats.UpsizesPerWay[i]++
				t.notePeak()
				return cycles, nil
			}
			c2, err2 := t.upsizeOutOfPlace(w, newSize, t.ladder())
			cycles += c2
			if err2 != nil {
				return cycles, fmt.Errorf("%w: way %d: %w (out-of-place fallback: %v)",
					ErrResizeFailed, i, err, err2)
			}
			return cycles, nil
		}
		cycles, err := t.transitionWay(w, newSize)
		if err == nil {
			t.stats.UpsizesPerWay[i]++
			t.notePeak()
			return cycles, nil
		}
		// The transition rolled back; the way still runs at the old rung.
		c2, err2 := t.upsizeOutOfPlace(w, newSize, t.ladder())
		cycles += c2
		if err2 != nil {
			return cycles, fmt.Errorf("%w: way %d: %w (out-of-place fallback: %v)",
				ErrResizeFailed, i, err, err2)
		}
		return cycles, nil
	}

	// Out-of-place ablation: allocate a separate new backing; old and new
	// coexist until the gradual rehash completes — the memory cost Section
	// IV-C eliminates. The new backing never uses smaller chunks than the
	// way already graduated to.
	cycles, err := t.upsizeOutOfPlace(w, newSize, t.ladderFrom(w.store.ChunkBytes()))
	if err != nil {
		if errors.Is(err, chunk.ErrL2PFull) {
			// Even the largest rung cannot fit alongside the old chunks:
			// fall back to an eager rebuild.
			c2, err2 := t.transitionWay(w, newSize)
			cycles += c2
			if err2 != nil {
				return cycles, fmt.Errorf("%w: way %d: %w", ErrResizeFailed, i, err2)
			}
			t.stats.UpsizesPerWay[i]++
			t.notePeak()
			return cycles, nil
		}
		return cycles, fmt.Errorf("%w: way %d: %w", ErrResizeFailed, i, err)
	}
	return cycles, nil
}

// upsizeOutOfPlace starts a gradual out-of-place upsize of way w into a
// separate pending store drawn from the given ladder. It is both the
// no-in-place ablation's normal path and the in-place mode's degradation
// fallback (where the full ladder lets small chunks stand in when large
// contiguous blocks are unavailable).
func (t *Table) upsizeOutOfPlace(w *way, newSize uint64, ladder []uint64) (uint64, error) {
	pending, cycles, err := chunk.NewStoreLadder(t.alloc, t.l2p, w.idx, t.size,
		newSize*pt.EntryBytes, ladder)
	if err != nil {
		return cycles, err
	}
	t.noteAlloc(pending.ChunkBytes(), cycles)
	w.pending = pending
	w.beginResize(newSize)
	t.stats.UpsizesPerWay[w.idx]++
	t.notePeak()
	return cycles, nil
}

// ladderFrom returns the configured ladder truncated to start at the rung
// holding cur, so a new backing never uses smaller chunks than the way
// already graduated to.
func (t *Table) ladderFrom(cur uint64) []uint64 {
	ladder := t.ladder()
	for i, r := range ladder {
		if r >= cur {
			return ladder[i:]
		}
	}
	return ladder[len(ladder)-1:]
}

// transitionWay performs the chunk-size transition of Figure 3d→e: an eager
// out-of-place rebuild of way i over chunks of the next rung. The OS buffers
// the way's entries (at most one maximal old way), frees the old chunks,
// allocates the new ones, and reinserts. The way's slots are the buffer:
// the store's transition leaves them alone, so a transition that fails
// (and is retried by the next insert) copies nothing.
func (t *Table) transitionWay(w *way, newSize uint64) (uint64, error) {
	targetBytes := newSize * pt.EntryBytes
	cycles, err := w.store.Transition(targetBytes)
	t.noteAlloc(w.store.ChunkBytes(), cycles)
	if err != nil {
		// The store rolled back to the old rung; the way is untouched.
		return cycles, err
	}
	t.stats.Transitions++
	w.resizing = false
	w.size = newSize
	old := w.slots
	w.slots = emptySlots(newSize)
	w.occ = 0
	for _, e := range old {
		if e.Key == cuckoo.EmptyKey {
			continue
		}
		idx := w.fn.Index(e.Key, newSize)
		t.stats.MovesTotal++
		if w.slots[idx].Key == cuckoo.EmptyKey {
			w.slots[idx] = e
			w.occ++
			continue
		}
		if _, err := t.placeMigration(e, w.idx); err != nil {
			// The old store is gone, so this entry cannot be rolled back
			// into it; spill to the software stash instead. It stays fully
			// visible to lookups and drains back on later inserts.
			t.stashPut(e)
		}
	}
	return cycles, nil
}

// downsizeWay halves way i. In-place downsizes need no allocation at all;
// the out-of-place ablation allocates the smaller table separately.
func (t *Table) downsizeWay(i int) uint64 {
	w := t.ways[i]
	if w.resizing {
		if err := t.drainWay(w); err != nil {
			// Downsizing is an optimization; skip it while migration is
			// stalled and let a later pass retry.
			return 0
		}
	}
	newSize := w.size / 2
	if newSize < t.cfg.InitialEntries {
		return 0
	}
	if t.cfg.InPlace {
		w.beginResize(newSize)
		t.stats.Downsizes++
		return 0
	}
	pending, cycles, err := chunk.NewStoreLadder(t.alloc, t.l2p, i, t.size,
		newSize*pt.EntryBytes, t.ladderFrom(0))
	if err != nil {
		// Cannot allocate the smaller table right now; skip the downsize.
		return cycles
	}
	t.noteAlloc(pending.ChunkBytes(), cycles)
	w.pending = pending
	w.beginResize(newSize)
	t.stats.Downsizes++
	t.notePeak()
	return cycles
}

// drainWay completes way w's in-flight resize synchronously. A stalled
// migration stops the drain with the resize still in flight; the way stays
// valid and a later tick retries.
func (t *Table) drainWay(w *way) error {
	for w.resizing {
		for w.resizing && w.ptr < w.size {
			if _, err := t.migrateOne(w); err != nil {
				return err
			}
		}
		if w.resizing {
			w.finishResize()
			t.notePeak()
		}
	}
	return nil
}
