package mehpt

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/chunk"
	"repro/internal/cuckoo"
	"repro/internal/hashfn"
	"repro/internal/pt"
)

// way is one hash way of an ME-HPT table. Unlike the baseline ECPT, each way
// has its own size (per-way resizing, Section IV-D) and resizes in place
// (Section IV-C): during a resize the old and new tables share the same slot
// array and chunk store, and the new hash key is the old key with one bit
// added (upsize) or removed (downsize).
type way struct {
	idx int
	fn  hashfn.Func

	// slots is the logical slot array. Outside a resize its length is size.
	// During an in-place or out-of-place upsize it is grown to newSize; the
	// trailing half is the "new space" of Figure 4.
	slots []cuckoo.Entry
	size  uint64 // current (pre-resize) size in slots; power of two
	occ   uint64 // occupied slots

	store *chunk.Store
	// pending is the separate physical backing allocated by an out-of-place
	// resize (the no-in-place ablation); nil otherwise. Old and new backing
	// coexist until the resize finishes, which is exactly the memory cost
	// in-place resizing eliminates.
	pending *chunk.Store

	resizing bool
	up       bool
	newSize  uint64
	ptr      uint64 // rehash pointer over the old index space [0, size)
}

func newWay(idx int, fn hashfn.Func, entries uint64, store *chunk.Store) *way {
	w := &way{idx: idx, fn: fn, size: entries, store: store}
	w.slots = emptySlots(entries)
	return w
}

func emptySlots(n uint64) []cuckoo.Entry {
	s := make([]cuckoo.Entry, n)
	for i := range s {
		s[i].Key = cuckoo.EmptyKey
	}
	return s
}

// capacity is the slot count resizing is steering toward.
func (w *way) capacity() uint64 {
	if w.resizing {
		return w.newSize
	}
	return w.size
}

func (w *way) occupancy() float64 { return float64(w.occ) / float64(w.capacity()) }

func (w *way) free() uint64 { return w.capacity() - w.occ }

// locate returns the slot index where key lives (or would live), honouring
// the rehash pointer: hash keys whose old index is below the pointer belong
// to the new table, indexed with one more (upsize) or one fewer (downsize)
// bit of the same hash (Section IV-C).
func (w *way) locate(key uint64) uint64 {
	return w.locateHash(w.fn.Hash(key))
}

// locateHash is locate for a precomputed hash value — the multi-way probe
// loops compute one CRC per key through the table's Mixer and index every
// way (and both resize sizes) from it.
func (w *way) locateHash(h uint64) uint64 {
	oldIdx := h & (w.size - 1)
	if !w.resizing || oldIdx >= w.ptr {
		return oldIdx
	}
	return h & (w.newSize - 1)
}

// slotPA returns the physical address of slot idx, resolved through the
// chunk store(s). During an out-of-place resize, new-table indices resolve
// through the pending store.
func (w *way) slotPA(idx uint64) addr.PhysAddr {
	off := idx * pt.EntryBytes
	if w.pending != nil {
		// Out-of-place: the new table is a separate physical object. Any
		// index below the new size addresses the new table only when it was
		// produced by new-table indexing; since old and new overlap in index
		// space, we conservatively resolve indices < newSize that are in the
		// migrated region (or in the grown upper half) through pending.
		if w.up {
			if idx >= w.size || idx < w.ptr {
				return w.pending.SlotAddr(off)
			}
		} else if idx < w.newSize && idx < w.ptr {
			return w.pending.SlotAddr(off)
		}
	}
	return w.store.SlotAddr(off)
}

// footprint returns the physical bytes held by this way.
func (w *way) footprint() uint64 {
	b := w.store.FootprintBytes()
	if w.pending != nil {
		b += w.pending.FootprintBytes()
	}
	return b
}

// beginResize records the resize state; physical growth must already have
// happened (Extend for in-place, pending store for out-of-place).
func (w *way) beginResize(newSize uint64) {
	if w.resizing {
		panic("mehpt: beginResize with resize in flight")
	}
	w.resizing = true
	w.up = newSize > w.size
	w.newSize = newSize
	w.ptr = 0
	if w.up {
		grown := emptySlots(newSize)
		copy(grown, w.slots)
		w.slots = grown
	}
}

// finishResize commits the resize: the way's size becomes newSize, trailing
// physical chunks are released on a downsize, and a pending out-of-place
// store replaces the old one.
func (w *way) finishResize() {
	if !w.resizing {
		panic("mehpt: finishResize without resize")
	}
	if !w.up {
		for i := w.newSize; i < w.size; i++ {
			if w.slots[i].Key != cuckoo.EmptyKey {
				panic(fmt.Sprintf("mehpt: live entry at %d beyond downsized table", i))
			}
		}
		w.slots = w.slots[:w.newSize]
	}
	w.size = w.newSize
	w.resizing = false
	if w.pending != nil {
		w.store.Free()
		w.store = w.pending
		w.pending = nil
	} else if w.store.WayBytes() > w.size*pt.EntryBytes {
		w.store.ShrinkTo(w.size * pt.EntryBytes)
	}
}
