package pt

import "fmt"

// SlabState is the serializable form of a Slab. The free list is preserved
// verbatim — its stack order determines which ids future Allocs hand out,
// so bit-identical resumption requires the exact list, not just its
// membership. Clusters is the flat id-indexed array, independent of how
// the slab chunks it.
type SlabState struct {
	Clusters []Cluster
	Free     []uint64
}

// State returns a deep copy of the slab's contents.
func (s *Slab) State() SlabState {
	st := SlabState{
		Clusters: make([]Cluster, 0, s.n),
		Free:     make([]uint64, len(s.free)),
	}
	for _, c := range s.chunks {
		st.Clusters = append(st.Clusters, c...)
	}
	copy(st.Free, s.free)
	return st
}

// Restore replaces the slab's contents with the recorded state. It rejects
// a free list naming an id out of range or naming one id twice, which the
// resumed run would otherwise trip over as a panic or as two clusters
// sharing one id; the slab is left unchanged then.
func (s *Slab) Restore(st SlabState) error {
	n := uint64(len(st.Clusters))
	onFree := make([]bool, n)
	for _, id := range st.Free {
		if id >= n {
			return fmt.Errorf("pt: free cluster id %d out of range of %d clusters", id, n)
		}
		if onFree[id] {
			return fmt.Errorf("pt: cluster id %d is on the free list twice", id)
		}
		onFree[id] = true
	}
	s.chunks = nil
	for lo := uint64(0); lo < n; lo += chunkLen {
		part := st.Clusters[lo:min(lo+chunkLen, n)]
		// Chunk 0 is sized exactly, as one flat slice would be; a later
		// partial chunk gets the capacity Alloc would have grown it to.
		size := len(part)
		if lo > 0 {
			size = startCap(int(lo >> chunkShift))
			for size < len(part) {
				size *= 2
			}
		}
		c := make([]Cluster, len(part), size)
		copy(c, part)
		s.chunks = append(s.chunks, c)
	}
	s.n = n
	s.free = make([]uint64, len(st.Free))
	copy(s.free, st.Free)
	return nil
}
