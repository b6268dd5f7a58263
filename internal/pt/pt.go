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

// Cluster is the payload of one clustered entry: up to 8 translations.
type Cluster struct {
	ValidMask uint8
	PPNs      [ClusterSpan]addr.PPN
}

// Set stores a translation in slot sub.
func (c *Cluster) Set(sub uint, ppn addr.PPN) {
	c.PPNs[sub] = ppn
	c.ValidMask |= 1 << sub
}

// Get returns the translation in slot sub, if valid.
func (c *Cluster) Get(sub uint) (addr.PPN, bool) {
	if c.ValidMask&(1<<sub) == 0 {
		return 0, false
	}
	return c.PPNs[sub], true
}

// Clear invalidates slot sub and reports whether the cluster became empty.
func (c *Cluster) Clear(sub uint) bool {
	c.ValidMask &^= 1 << sub
	c.PPNs[sub] = 0
	return c.ValidMask == 0
}

// Slab chunk geometry: ids are split into a chunk index (id >> chunkShift)
// and an offset within the chunk (id & (chunkLen-1)).
const (
	chunkShift = 13
	chunkLen   = 1 << chunkShift // 8192 clusters, 576 KiB
	// fullChunksFrom is the first chunk index allocated at full length.
	fullChunksFrom = 8
)

// startCap returns the capacity a new chunk ci > 0 is allocated with.
func startCap(ci int) int {
	if ci >= fullChunksFrom {
		return chunkLen
	}
	return chunkLen / 4
}

// Slab stores cluster payloads and hands out stable 64-bit ids that fit in a
// cuckoo table's value word. The zero value is ready to use.
//
// Clusters live in chunks of chunkLen that are never copied once full, so
// growing a large slab allocates about its live size once instead of
// re-copying the whole array on every growth. Chunk 0 grows by append, so
// a slab of at most chunkLen clusters costs what one flat slice would.
// Chunks 1 to fullChunksFrom-1 start at a quarter of chunkLen and double
// to full, which bounds the slack of a mid-sized slab to its tail chunk;
// from fullChunksFrom on, a chunk is allocated full at once, its slack
// then under an eighth of the slab.
type Slab struct {
	chunks [][]Cluster
	n      uint64 // clusters ever allocated; ids are 0..n-1
	free   []uint64
}

// Alloc returns the id of a zeroed cluster.
func (s *Slab) Alloc() uint64 {
	if k := len(s.free); k > 0 {
		id := s.free[k-1]
		s.free = s.free[:k-1]
		*s.At(id) = Cluster{}
		return id
	}
	id := s.n
	ci := int(id >> chunkShift)
	if ci == len(s.chunks) {
		var c []Cluster
		if ci > 0 {
			c = make([]Cluster, 0, startCap(ci))
		}
		s.chunks = append(s.chunks, c)
	}
	c := &s.chunks[ci]
	switch {
	case ci == 0:
		*c = append(*c, Cluster{})
	case len(*c) == cap(*c):
		grown := make([]Cluster, len(*c)+1, 2*cap(*c))
		copy(grown, *c)
		*c = grown
	default:
		*c = (*c)[:len(*c)+1]
	}
	s.n++
	return id
}

// At returns the cluster with the given id, and panics on an id Alloc never
// returned: every chunk's length is exactly the clusters allocated in it,
// so the slice bounds checks reject any id >= n. Once id's chunk is full
// the pointer stays valid across later Allocs, since full chunks never
// move; a pointer into the tail chunk is invalidated by the Alloc that
// grows it.
func (s *Slab) At(id uint64) *Cluster {
	return &s.chunks[id>>chunkShift][id&(chunkLen-1)]
}

// Free recycles id.
func (s *Slab) Free(id uint64) { s.free = append(s.free, id) }

// Translation is a completed address translation.
type Translation struct {
	PPN  addr.PPN
	Size addr.PageSize
}
