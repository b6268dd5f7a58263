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
	var chunks [][]packedCluster
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
		c := make([]packedCluster, len(part), size)
		for i, cl := range part {
			var ok bool
			if c[i], ok = pack(cl); !ok {
				return fmt.Errorf("pt: cluster id %d holds a PPN no cluster slot can: %+v", lo+uint64(i), cl)
			}
		}
		chunks = append(chunks, c)
	}
	s.chunks = chunks
	s.n = n
	s.free = make([]uint64, len(st.Free))
	copy(s.free, st.Free)
	return nil
}
