// Package chunk implements the chunked physical backing of an ME-HPT way
// (Sections IV-A, IV-B and V-B): each way is a collection of fixed-size,
// discontiguous physical chunks addressed through the L2P table, and the
// chunk size climbs a ladder (8KB → 1MB → 8MB → 64MB) as the way grows.
package chunk

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/l2p"
	"repro/internal/phys"
)

// Ladder is the paper's chosen chunk-size progression (Section V-B). The
// evaluated applications only ever need the first two rungs.
var Ladder = []uint64{8 * addr.KB, 1 * addr.MB, 8 * addr.MB, 64 * addr.MB}

// ErrL2PFull signals that growing the way at the current chunk size would
// exceed the way's L2P subtable capacity: the caller must transition to the
// next chunk size (out-of-place) instead.
var ErrL2PFull = errors.New("chunk: L2P subtable full; chunk-size transition required")

// ErrLadderExhausted is returned when the way cannot grow even at the
// largest chunk size.
var ErrLadderExhausted = errors.New("chunk: way exceeds capacity of largest chunk size")

// ErrTransitionFailed is returned when a chunk-size transition could not
// allocate the next rung's chunks and rolled back: the store is valid at
// its previous geometry, and the error chain reaches the underlying
// allocation failure (usually phys.ErrOutOfMemory).
var ErrTransitionFailed = errors.New("chunk: chunk-size transition failed and rolled back")

func nextIn(ladder []uint64, cur uint64) uint64 {
	for i, c := range ladder {
		if c == cur && i+1 < len(ladder) {
			return ladder[i+1]
		}
	}
	return 0
}

// nextRung returns the store's next ladder rung, or 0 at the top.
func (s *Store) nextRung() uint64 {
	ladder := s.ladder
	if ladder == nil {
		ladder = Ladder
	}
	return nextIn(ladder, s.chunkBytes)
}

// Store is the physical backing of one HPT way for one page size: the chunk
// list, the current chunk size, and the L2P entries that point at the
// chunks. It is pure accounting — slot contents live in the page table.
type Store struct {
	// Not in the snapshot: RestoreStore reattaches the separately restored physical allocator
	alloc phys.Source
	// Not in the snapshot: RestoreStore reattaches the separately restored L2P table
	l2p    *l2p.Table
	way    int
	size   addr.PageSize
	ladder []uint64

	chunkBytes uint64
	chunks     []addr.PPN
	wayBytes   uint64 // logical way size (a power of two ≥ one slot)
}

// NewStoreLadder creates the backing for a way of initialWayBytes on a
// chunk-size ladder: Ladder, or a custom one such as the Figure 15
// ablation's 1MB-only ladder. The ladder must be sorted ascending; the
// smallest feasible rung that covers initialWayBytes within the L2P limit
// is chosen. It returns the allocation cycle cost.
func NewStoreLadder(alloc phys.Source, tbl *l2p.Table, way int, size addr.PageSize, initialWayBytes uint64, ladder []uint64) (*Store, uint64, error) {
	if len(ladder) == 0 {
		panic("chunk: empty ladder")
	}
	s := &Store{
		alloc:  alloc,
		l2p:    tbl,
		way:    way,
		size:   size,
		ladder: ladder,
	}
	// Pick the smallest rung whose chunk count for the initial size fits
	// the currently-available L2P entries.
	avail := tbl.Limit(way, size) - tbl.Used(way, size)
	s.chunkBytes = ladder[len(ladder)-1]
	for _, rung := range ladder {
		if chunksFor(initialWayBytes, rung) <= avail {
			s.chunkBytes = rung
			break
		}
	}
	cycles, err := s.extendChunks(initialWayBytes)
	if err != nil {
		return nil, cycles, err
	}
	s.wayBytes = initialWayBytes
	return s, cycles, nil
}

// WayBytes returns the logical way size.
func (s *Store) WayBytes() uint64 { return s.wayBytes }

// ChunkBytes returns the current chunk size — the way's maximum contiguous
// allocation unit.
func (s *Store) ChunkBytes() uint64 { return s.chunkBytes }

// FootprintBytes returns the physical memory held: whole chunks, even if the
// logical way only fills part of the last one (Figure 3a: a 4KB way holds
// half of an 8KB chunk).
func (s *Store) FootprintBytes() uint64 {
	return uint64(len(s.chunks)) * s.chunkBytes
}

// chunksFor returns how many chunks of chunkBytes cover wayBytes.
func chunksFor(wayBytes, chunkBytes uint64) int {
	if wayBytes <= chunkBytes {
		return 1
	}
	return int((wayBytes + chunkBytes - 1) / chunkBytes)
}

// CanExtendInPlace reports whether the way can grow to targetBytes by adding
// chunks of the current size within the L2P limit — i.e. whether the next
// resize can be in-place.
func (s *Store) CanExtendInPlace(targetBytes uint64) bool {
	need := chunksFor(targetBytes, s.chunkBytes)
	have := len(s.chunks)
	if need <= have {
		return true
	}
	return s.l2p.Used(s.way, s.size)+(need-have) <= s.l2p.Limit(s.way, s.size)
}

// Extend grows the physical backing to cover targetBytes at the current
// chunk size, acquiring L2P entries and allocating chunks. It returns the
// allocation cycle cost. On ErrL2PFull the caller must Transition instead.
// On allocation failure the store is unchanged.
func (s *Store) Extend(targetBytes uint64) (uint64, error) {
	if targetBytes < s.wayBytes {
		panic(fmt.Sprintf("chunk: Extend(%d) below current size %d", targetBytes, s.wayBytes))
	}
	cycles, err := s.extendChunks(targetBytes)
	if err != nil {
		return cycles, err
	}
	s.wayBytes = targetBytes
	return cycles, nil
}

func (s *Store) extendChunks(targetBytes uint64) (uint64, error) {
	return s.extend(targetBytes, false)
}

// extend grows the chunk list to cover targetBytes. restoring selects the
// rollback allocation path, which bypasses fault injection: a restore
// re-acquires memory the caller just freed, so it must always succeed.
func (s *Store) extend(targetBytes uint64, restoring bool) (uint64, error) {
	need := chunksFor(targetBytes, s.chunkBytes)
	var total uint64
	added := 0
	for len(s.chunks) < need {
		if !s.l2p.Acquire(s.way, s.size) {
			// Roll back this extension attempt.
			s.rollback(added)
			return total, ErrL2PFull
		}
		var (
			ppn    addr.PPN
			cycles uint64
			err    error
		)
		if restoring {
			ppn, cycles, err = s.alloc.AllocRollback(s.chunkBytes)
		} else {
			ppn, cycles, err = s.alloc.Alloc(s.chunkBytes)
		}
		total += cycles
		if err != nil {
			s.l2p.Release(s.way, s.size, 1)
			s.rollback(added)
			return total, err
		}
		s.chunks = append(s.chunks, ppn)
		added++
	}
	return total, nil
}

func (s *Store) rollback(added int) {
	for i := 0; i < added; i++ {
		last := s.chunks[len(s.chunks)-1]
		s.chunks = s.chunks[:len(s.chunks)-1]
		s.alloc.Free(last, s.chunkBytes)
		s.l2p.Release(s.way, s.size, 1)
	}
}

// Transition replaces the backing with chunks of the next ladder size,
// covering targetBytes. It returns the new store's allocation cost. The old
// chunks are freed — the caller performs the (eager) rehash of entries
// before calling Transition, or buffers them, since the paper performs at
// most one transition per execution and treats it as the one out-of-place
// resize (Section VII-E1).
func (s *Store) Transition(targetBytes uint64) (uint64, error) {
	next := s.nextRung()
	if next == 0 {
		return 0, ErrLadderExhausted
	}
	// Release old resources first: the OS buffers the (at most 512KB of)
	// entries while it rebuilds, so old chunk memory and L2P entries are
	// returned before the new allocation.
	oldChunks := s.chunks
	oldChunkBytes := s.chunkBytes
	for _, c := range oldChunks {
		s.alloc.Free(c, oldChunkBytes)
	}
	s.l2p.Release(s.way, s.size, len(oldChunks))
	// Reuse the list's backing array, here and in the rollback: a failed
	// transition is retried by the next insert and must not regrow it.
	s.chunks = oldChunks[:0]
	s.chunkBytes = next

	cycles, err := s.extendChunks(targetBytes)
	if err != nil {
		// Restore the old configuration so the caller can keep running at
		// the previous size. The restore allocations bypass fault injection
		// (AllocRollback): the old chunks were freed above, so the buddy
		// allocator can always hand the same capacity back. A failure here
		// is therefore an accounting-invariant violation, not a recoverable
		// condition, and stays a panic (see DESIGN.md "Fault model").
		s.chunkBytes = oldChunkBytes
		s.chunks = oldChunks[:0]
		if _, err2 := s.extend(uint64(len(oldChunks))*oldChunkBytes, true); err2 != nil {
			panic(fmt.Sprintf("chunk: cannot restore after failed transition: %v", err2))
		}
		return cycles, fmt.Errorf("%w: %w", ErrTransitionFailed, err)
	}
	s.wayBytes = targetBytes
	return cycles, nil
}

// ShrinkTo reduces the logical way to targetBytes, freeing now-unneeded
// whole chunks and their L2P entries. Chunk size never moves back down the
// ladder (the paper does not shrink chunk sizes; note Section IX: avoiding
// de-allocation-induced fragmentation is a design goal).
func (s *Store) ShrinkTo(targetBytes uint64) {
	if targetBytes > s.wayBytes {
		panic(fmt.Sprintf("chunk: ShrinkTo(%d) above current size %d", targetBytes, s.wayBytes))
	}
	keep := chunksFor(targetBytes, s.chunkBytes)
	for len(s.chunks) > keep {
		last := s.chunks[len(s.chunks)-1]
		s.chunks = s.chunks[:len(s.chunks)-1]
		s.alloc.Free(last, s.chunkBytes)
		s.l2p.Release(s.way, s.size, 1)
	}
	s.wayBytes = targetBytes
}

// Free releases all chunks and L2P entries.
func (s *Store) Free() {
	for _, c := range s.chunks {
		s.alloc.Free(c, s.chunkBytes)
	}
	s.l2p.Release(s.way, s.size, len(s.chunks))
	s.chunks = nil
	s.wayBytes = 0
}

// SlotAddr returns the physical address of the slot at the given byte
// offset into the logical way — the address the L2P indirection resolves to
// (Figure 2b: chunk base plus hash-key mod chunk size).
func (s *Store) SlotAddr(offset uint64) addr.PhysAddr {
	if offset >= s.wayBytes {
		panic(fmt.Sprintf("chunk: offset %d beyond way size %d", offset, s.wayBytes))
	}
	ci := offset / s.chunkBytes
	return s.chunks[ci].Addr(addr.Page4K) + addr.PhysAddr(offset%s.chunkBytes)
}

// MaxWayBytes returns the largest way the current chunk size supports given
// a full 64-entry (stolen) L2P subtable — Table II's first column.
func MaxWayBytes(chunkBytes uint64) uint64 {
	return chunkBytes * l2p.StolenMax
}
