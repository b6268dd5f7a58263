package pt

import "fmt"

// SlabState is the serializable form of a Slab. The free list is preserved
// verbatim — its stack order determines which ids future Allocs hand out,
// so bit-identical resumption requires the exact list, not just its
// membership. Clusters is the flat id-indexed array in Cluster form,
// independent of how the slab chunks and packs it.
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
	for _, chunk := range s.chunks {
		for i := range chunk {
			st.Clusters = append(st.Clusters, chunk[i].export())
		}
	}
	copy(st.Free, s.free)
	return st
}

// Restore replaces the slab's contents with the recorded state. It rejects
// a free list naming an id out of range or naming one id twice, which the
// resumed run would otherwise trip over as a panic or as two clusters
// sharing one id, and a cluster the packed form cannot hold (a PPN above
// maxPPN, or a PPN in an invalid slot); the slab is left unchanged then.
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
	// The restored clusters share one backing block of whole chunks;
	// later Allocs add blocks by the usual rule.
	var r Slab
	r.addChunks(int((n + chunkLen - 1) >> chunkShift))
	for id, cl := range st.Clusters {
		p, ok := pack(cl)
		if !ok {
			return fmt.Errorf("pt: cluster id %d holds a PPN no cluster slot can: %+v", id, cl)
		}
		c := &r.chunks[id>>chunkShift]
		*c = append(*c, p) // within the chunk's capacity: no copy
	}
	s.chunks = r.chunks
	s.n = n
	s.free = make([]uint64, len(st.Free))
	copy(s.free, st.Free)
	return nil
}
