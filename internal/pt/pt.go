// Package pt holds the types shared by the page-table organizations:
// clustered page-table entries, the slab that backs them, the translation
// result all three (radix, ECPT, ME-HPT) return, and Hashed, the multi-size
// page table ECPT and ME-HPT share.
//
// Hashed page tables in this repository use *page-table entry clustering*
// (Yaniv & Tsafrir, adopted by ECPT): one table slot is a 64-byte cache line
// holding the translations of 8 contiguous virtual pages, with the hash tag
// compacted into unused PTE bits. Clustering restores spatial locality and
// makes the tag memory-free, which is what makes HPTs competitive.
package pt

import "repro/internal/addr"

// EntryBytes is the size of one clustered HPT slot: a 64-byte cache line.
const EntryBytes = 64

// ClusterSpan is the number of contiguous virtual pages covered by one
// clustered entry.
const ClusterSpan = 8

// ClusterKey returns the hash key of the cluster containing vpn: the VPN
// with the intra-cluster bits stripped.
func ClusterKey(vpn addr.VPN) uint64 { return uint64(vpn) / ClusterSpan }

// SubIndex returns vpn's slot within its cluster.
func SubIndex(vpn addr.VPN) uint { return uint(uint64(vpn) % ClusterSpan) }

// BaseVPN returns the first VPN covered by the cluster with the given key.
func BaseVPN(key uint64) addr.VPN { return addr.VPN(key * ClusterSpan) }

// Cluster is the checkpoint form of one clustered entry: up to 8
// translations, slot i valid when ValidMask bit i is set, an invalid
// slot's PPN 0. It is the SlabState element; the slab itself holds the
// 48-byte packedCluster.
type Cluster struct {
	ValidMask uint8
	PPNs      [ClusterSpan]addr.PPN
}

// maxPPN is the largest PPN a cluster slot holds: a slot stores ppn+1 in
// 48 bits, 0 meaning empty.
const maxPPN = 1<<48 - 2

// packedCluster is the slab's form of one clustered entry. Slot i holds
// ppn+1 split into a 32-bit low part lo[i] and a 16-bit high part hi[i],
// and 0 means empty, so the 8 slots take 48 bytes and, with the 16-byte
// way slot that names the cluster, an entry costs the host the 64 bytes
// it simulates.
type packedCluster struct {
	lo [ClusterSpan]uint32
	hi [ClusterSpan]uint16
}

// set stores ppn, at most maxPPN, in slot sub.
func (c *packedCluster) set(sub uint, ppn addr.PPN) {
	v := uint64(ppn) + 1
	c.lo[sub], c.hi[sub] = uint32(v), uint16(v>>32)
}

// get returns the translation in slot sub, if valid.
func (c *packedCluster) get(sub uint) (addr.PPN, bool) {
	v := uint64(c.lo[sub]) | uint64(c.hi[sub])<<32
	return addr.PPN(v - 1), v != 0
}

// clear invalidates slot sub and reports whether the cluster became empty.
func (c *packedCluster) clear(sub uint) bool {
	c.lo[sub], c.hi[sub] = 0, 0
	return *c == packedCluster{}
}

// export returns the checkpoint form of c.
func (c *packedCluster) export() Cluster {
	var out Cluster
	for sub := uint(0); sub < ClusterSpan; sub++ {
		if ppn, ok := c.get(sub); ok {
			out.ValidMask |= 1 << sub
			out.PPNs[sub] = ppn
		}
	}
	return out
}

// pack returns the slab form of c. It reports false for a cluster export
// never returns: a valid slot whose PPN exceeds maxPPN, or an invalid one
// whose PPN is not 0.
func pack(c Cluster) (packedCluster, bool) {
	var out packedCluster
	for sub := uint(0); sub < ClusterSpan; sub++ {
		ppn := c.PPNs[sub]
		switch {
		case c.ValidMask&(1<<sub) != 0 && ppn <= maxPPN:
			out.set(sub, ppn)
		case c.ValidMask&(1<<sub) != 0 || ppn != 0:
			return packedCluster{}, false
		}
	}
	return out, true
}

// Slab chunk geometry: ids are split into a chunk index (id >> chunkShift)
// and an offset within the chunk (id & (chunkLen-1)).
const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift // 256 clusters, 12 KiB
	// maxBlockChunks caps the chunks one backing allocation holds: 8192
	// clusters, 384 KiB.
	maxBlockChunks = 32
)

// Slab stores packed cluster payloads and hands out stable 64-bit ids that
// fit in a cuckoo table's value word, with bit 63, which marks an inline
// value (see Hashed.Map), clear. The zero value is ready to use.
//
// Clusters live in chunks of chunkLen that never move, carved from backing
// blocks that are never copied: when the chunks run out, Alloc allocates a
// block of a quarter as many chunks as the slab has, at least one and at
// most maxBlockChunks. A slab therefore allocates its clusters' bytes
// once, its slack is under a quarter of it (or one chunk), and a large
// slab takes one allocation per 8192 clusters.
type Slab struct {
	chunks [][]packedCluster
	n      uint64 // clusters ever allocated; ids are 0..n-1
	free   []uint64
}

// Alloc returns the id of a zeroed cluster.
func (s *Slab) Alloc() uint64 {
	if k := len(s.free); k > 0 {
		id := s.free[k-1]
		s.free = s.free[:k-1]
		*s.At(id) = packedCluster{}
		return id
	}
	id := s.n
	ci := int(id >> chunkShift)
	if ci == len(s.chunks) {
		s.addChunks(min(max(ci/4, 1), maxBlockChunks))
	}
	s.chunks[ci] = s.chunks[ci][:len(s.chunks[ci])+1]
	s.n++
	return id
}

// addChunks appends k empty chunks carved from one new backing block.
func (s *Slab) addChunks(k int) {
	block := make([]packedCluster, k*chunkLen)
	for lo := 0; lo < len(block); lo += chunkLen {
		s.chunks = append(s.chunks, block[lo:lo:lo+chunkLen])
	}
}

// At returns the cluster with the given id, and panics on an id Alloc never
// returned: every chunk's length is exactly the clusters allocated in it,
// so the slice bounds checks reject any id >= n. The pointer stays valid
// across later Allocs, since chunks never move.
func (s *Slab) At(id uint64) *packedCluster {
	return &s.chunks[id>>chunkShift][id&(chunkLen-1)]
}

// Free recycles id.
func (s *Slab) Free(id uint64) { s.free = append(s.free, id) }

// Translation is a completed address translation.
type Translation struct {
	PPN  addr.PPN
	Size addr.PageSize
}
