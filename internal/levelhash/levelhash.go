// Package levelhash implements Level Hashing (Zuo, Hua & Wu, OSDI'18) — the
// only other hashing scheme with a form of in-place resizing, which the
// paper compares against in Section IX. The comparison points the paper
// makes, and which this implementation lets us measure:
//
//   - Level hashing trades more memory accesses (up to 4 bucket probes per
//     lookup) for fewer entry moves during a resize (only the bottom
//     level's ~1/3 of entries move).
//   - ME-HPT's in-place resizing moves ~50% of entries but needs no extra
//     probes per lookup, and never de-allocates part of the old table.
//
// The structure: two levels of buckets, the top level twice the size of the
// bottom. Each key hashes to two candidate buckets per level (two hash
// functions). An upsize allocates a new top level with 2× the old top's
// buckets and rehashes only the old *bottom* level into it; the old top
// level becomes the new bottom level.
package levelhash

import (
	"errors"
	"fmt"

	"repro/internal/hashfn"
)

// SlotsPerBucket is the bucket associativity (the OSDI paper uses 4).
const SlotsPerBucket = 4

// EmptyKey marks an unoccupied slot.
const EmptyKey = ^uint64(0)

// ErrTableFull is returned when an insert cannot be placed even after
// resizing.
var ErrTableFull = errors.New("levelhash: table full")

type slot struct {
	key uint64
	val uint64
}

type bucket struct {
	slots [SlotsPerBucket]slot
}

func newBuckets(n uint64) []bucket {
	bs := make([]bucket, n)
	for i := range bs {
		for j := range bs[i].slots {
			bs[i].slots[j].key = EmptyKey
		}
	}
	return bs
}

// Stats counts the behaviour the Section IX comparison cares about.
type Stats struct {
	Inserts     uint64
	Lookups     uint64
	ProbeBucket uint64 // buckets examined by lookups
	Moves       uint64 // entries moved by resizes
	Resizes     uint64
}

// Table is a two-level level-hashing table. It is not safe for concurrent
// use.
type Table struct {
	fns   [2]hashfn.Func
	top   []bucket // 2N buckets
	bot   []bucket // N buckets
	count uint64
	stats Stats
	// movedShare sums, over resizes, the fraction of the entries present
	// at each resize that it moved.
	movedShare float64
	// MaxLoad is the load factor that triggers an upsize (the OSDI paper
	// resizes when an insert fails; we also resize proactively at 0.9).
	MaxLoad float64
}

// New creates a table whose bottom level has n buckets (n must be a power
// of two; the top level has 2n).
func New(n uint64, seed uint64) *Table {
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("levelhash: bottom bucket count %d must be a power of two", n))
	}
	fns := hashfn.Family(seed, 2)
	return &Table{
		fns:     [2]hashfn.Func{fns[0], fns[1]},
		top:     newBuckets(2 * n),
		bot:     newBuckets(n),
		MaxLoad: 0.9,
	}
}

// Capacity returns the total slot count.
func (t *Table) Capacity() uint64 {
	return uint64(len(t.top)+len(t.bot)) * SlotsPerBucket
}

// candidates returns the four candidate buckets of key: two per level.
func (t *Table) candidates(key uint64) [4]*bucket {
	return [4]*bucket{
		&t.top[t.fns[0].Index(key, uint64(len(t.top)))],
		&t.top[t.fns[1].Index(key, uint64(len(t.top)))],
		&t.bot[t.fns[0].Index(key, uint64(len(t.bot)))],
		&t.bot[t.fns[1].Index(key, uint64(len(t.bot)))],
	}
}

// Lookup returns the value stored for key. Up to four buckets are probed —
// the extra memory references the paper's Section IX contrasts with ME-HPT
// hashing's single probe per way.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	t.stats.Lookups++
	for _, b := range t.candidates(key) {
		t.stats.ProbeBucket++
		for i := range b.slots {
			if b.slots[i].key == key {
				return b.slots[i].val, true
			}
		}
	}
	return 0, false
}

// Insert stores key→val, resizing if the table is too full.
func (t *Table) Insert(key, val uint64) error {
	// Update in place if present.
	for _, b := range t.candidates(key) {
		for i := range b.slots {
			if b.slots[i].key == key {
				b.slots[i].val = val
				return nil
			}
		}
	}
	if float64(t.count+1) > t.MaxLoad*float64(t.Capacity()) {
		t.resize()
	}
	for attempt := 0; attempt < 3; attempt++ {
		if t.tryPlace(key, val) {
			t.count++
			t.stats.Inserts++
			return nil
		}
		t.resize()
	}
	return ErrTableFull
}

// tryPlace attempts insertion into the four candidate buckets, top level
// first (level hashing biases toward the top level so the bottom stays
// sparse for cheap resizes).
func (t *Table) tryPlace(key, val uint64) bool {
	for _, b := range t.candidates(key) {
		for i := range b.slots {
			if b.slots[i].key == EmptyKey {
				b.slots[i] = slot{key: key, val: val}
				return true
			}
		}
	}
	// One-step displacement: try to move an occupant of a top candidate to
	// its alternate top bucket (the OSDI paper's movement-based insertion).
	for ci := 0; ci < 2; ci++ {
		b := t.candidates(key)[ci]
		for i := range b.slots {
			occ := b.slots[i]
			alt := t.altTopBucket(occ.key, b)
			if alt == nil {
				continue
			}
			for j := range alt.slots {
				if alt.slots[j].key == EmptyKey {
					alt.slots[j] = occ
					b.slots[i] = slot{key: key, val: val}
					t.stats.Moves++
					return true
				}
			}
		}
	}
	return false
}

// altTopBucket returns key's other top-level candidate bucket, or nil if b
// is not one of them.
func (t *Table) altTopBucket(key uint64, b *bucket) *bucket {
	b0 := &t.top[t.fns[0].Index(key, uint64(len(t.top)))]
	b1 := &t.top[t.fns[1].Index(key, uint64(len(t.top)))]
	switch b {
	case b0:
		return b1
	case b1:
		return b0
	}
	return nil
}

// resize performs the level-hashing in-place expansion: a new top level of
// 4N buckets is allocated, the old *bottom* level (N buckets, ≈1/3 of the
// entries) is rehashed into it, the old top level becomes the new bottom,
// and the old bottom is de-allocated — the de-allocation the paper notes
// causes fragmentation, in contrast to ME-HPT's approach where the old
// table becomes part of the new one.
func (t *Table) resize() {
	t.stats.Resizes++
	moves := t.stats.Moves
	oldBot := t.bot
	newTop := newBuckets(uint64(len(t.top)) * 2)
	t.bot = t.top
	t.top = newTop
	for bi := range oldBot {
		for si := range oldBot[bi].slots {
			s := oldBot[bi].slots[si]
			if s.key == EmptyKey {
				continue
			}
			t.stats.Moves++
			if !t.placeInTop(s.key, s.val) {
				// Extremely unlikely with 0.9 load; place via full insert
				// machinery (may displace within top).
				if !t.tryPlace(s.key, s.val) {
					panic("levelhash: resize overflow")
				}
			}
		}
	}
	if t.count > 0 {
		t.movedShare += float64(t.stats.Moves-moves) / float64(t.count)
	}
}

func (t *Table) placeInTop(key, val uint64) bool {
	for _, fn := range t.fns {
		b := &t.top[fn.Index(key, uint64(len(t.top)))]
		for i := range b.slots {
			if b.slots[i].key == EmptyKey {
				b.slots[i] = slot{key: key, val: val}
				return true
			}
		}
	}
	return false
}

// MoveFractionPerResize returns the mean, over resizes, of the fraction of
// the entries present at each resize that it moved — the paper's Section
// IX comparison point (level hashing: ~1/3; ME-HPT in-place: ~1/2 but with
// no extra lookup probes).
func (t *Table) MoveFractionPerResize() float64 {
	if t.stats.Resizes == 0 {
		return 0
	}
	return t.movedShare / float64(t.stats.Resizes)
}

// ProbesPerLookup returns the average buckets probed per lookup.
func (t *Table) ProbesPerLookup() float64 {
	if t.stats.Lookups == 0 {
		return 0
	}
	return float64(t.stats.ProbeBucket) / float64(t.stats.Lookups)
}
