package chunk

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/l2p"
	"repro/internal/phys"
)

// State is the serializable form of a Store: pure accounting, no frames
// are moved. The referenced L2P entries are captured separately (the L2P
// table serializes as a whole); the chunk PPNs recorded here are the frames
// the restored allocator state already shows as allocated.
type State struct {
	Way        int
	Size       addr.PageSize
	Ladder     []uint64
	ChunkBytes uint64
	Chunks     []addr.PPN
	WayBytes   uint64
}

// State returns a deep copy of the store's accounting.
func (s *Store) State() State {
	st := State{
		Way:        s.way,
		Size:       s.size,
		ChunkBytes: s.chunkBytes,
		WayBytes:   s.wayBytes,
	}
	if s.ladder != nil {
		st.Ladder = make([]uint64, len(s.ladder))
		copy(st.Ladder, s.ladder)
	}
	st.Chunks = make([]addr.PPN, len(s.chunks))
	copy(st.Chunks, s.chunks)
	return st
}

// RestoreStore rebuilds a store over an already-restored allocator and L2P
// table. It performs no allocation: the chunks in st are owned already
// (their frames are marked allocated in the restored phys state, and their
// L2P entries are part of the restored L2P accounting). It rejects a way
// or page size the L2P table has no subtable for, a chunk size that is no
// rung of the store's ladder, a way size that is not a power of two, and a
// chunk list that does not cover the way exactly.
func RestoreStore(st State, alloc phys.Source, tbl *l2p.Table) (*Store, error) {
	ladder := st.Ladder
	if ladder == nil {
		ladder = Ladder
	}
	rung := false
	for _, c := range ladder {
		rung = rung || c == st.ChunkBytes
	}
	switch {
	case st.Way < 0 || st.Way >= tbl.Ways() || !st.Size.Valid():
		return nil, fmt.Errorf("chunk: way %d of %d at page size %d has no L2P subtable", st.Way, tbl.Ways(), st.Size)
	case !rung || st.WayBytes == 0 || st.WayBytes&(st.WayBytes-1) != 0:
		return nil, fmt.Errorf("chunk: chunk size %d on ladder %v or way size %d is invalid", st.ChunkBytes, ladder, st.WayBytes)
	case len(st.Chunks) != chunksFor(st.WayBytes, st.ChunkBytes):
		return nil, fmt.Errorf("chunk: %d chunks of %d bytes back a %d-byte way", len(st.Chunks), st.ChunkBytes, st.WayBytes)
	}
	s := &Store{
		alloc:      alloc,
		l2p:        tbl,
		way:        st.Way,
		size:       st.Size,
		chunkBytes: st.ChunkBytes,
		wayBytes:   st.WayBytes,
	}
	if st.Ladder != nil {
		s.ladder = make([]uint64, len(st.Ladder))
		copy(s.ladder, st.Ladder)
	}
	s.chunks = make([]addr.PPN, len(st.Chunks))
	copy(s.chunks, st.Chunks)
	return s, nil
}

// Chunks returns the chunk base PPNs (scrubber access: each chunk is
// ChunkBytes of physically-contiguous allocated memory).
func (s *Store) Chunks() []addr.PPN { return s.chunks }
