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

import (
	"fmt"

	"repro/internal/addr"
)

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

// Slab stores cluster payloads and hands out stable 64-bit ids that fit in a
// cuckoo table's value word. The zero value is ready to use.
type Slab struct {
	clusters []Cluster
	free     []uint64
}

// Alloc returns the id of a zeroed cluster.
func (s *Slab) Alloc() uint64 {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		s.clusters[id] = Cluster{}
		return id
	}
	s.clusters = append(s.clusters, Cluster{})
	return uint64(len(s.clusters) - 1)
}

// At returns the cluster with the given id. The pointer is invalidated by
// the next Alloc.
func (s *Slab) At(id uint64) *Cluster {
	if id >= uint64(len(s.clusters)) {
		panic(fmt.Sprintf("pt: slab id %d out of range", id))
	}
	return &s.clusters[id]
}

// Free recycles id.
func (s *Slab) Free(id uint64) { s.free = append(s.free, id) }

// Translation is a completed address translation.
type Translation struct {
	PPN  addr.PPN
	Size addr.PageSize
}
