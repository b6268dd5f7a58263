package cwc

import (
	"repro/internal/addr"
)

// This file implements the Cuckoo Walk Tables themselves — the in-memory
// metadata ECPT maintains so a hardware walk knows which page sizes and
// ways can hold a translation for a VA region. The Walker (cwc.go) models
// the caches over these tables; the Tables here are the authoritative
// content, updated by the OS on every map, unmap, and cuckoo move.
//
// Granularity follows ECPT: the PMD-grain table has one entry per 2MB
// region recording, for 4KB-page translations inside the region, a bitmap
// of HPT ways that may hold them, plus a bit for "this region is mapped by
// a single 2MB page in way w". The PUD-grain table does the same at 1GB
// granularity for 2MB-page presence and 1GB pages.

// WaySet is a bitmap of candidate ways (bit i = way i may hold it).
type WaySet uint8

// Add marks way i as a candidate.
func (s WaySet) Add(i int) WaySet { return s | 1<<uint(i) }

// Has reports whether way i is a candidate.
func (s WaySet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Count returns the number of candidate ways — the number of parallel
// probes a walk must issue.
func (s WaySet) Count() int {
	n := 0
	for m := s; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// sectionInfo is one CWT entry: per page size, the ways that may hold
// translations for pages in this region.
type sectionInfo struct {
	ways [addr.NumPageSizes]WaySet
	// refs counts live translations per page size so unmap can clear bits
	// only when the last page of a (region, size, way) leaves. The paper's
	// hardware approximates this conservatively; we track it exactly per
	// size (per-way refcounts would be 3x bigger for little gain, so a way
	// bit may stay set conservatively until the size's count reaches 0 —
	// the same kind of overestimate real CWTs make).
	refs [addr.NumPageSizes]uint32
}

// Tables is the two-level CWT: PMD-grain (2MB regions) and PUD-grain (1GB
// regions).
type Tables struct {
	pmd map[uint64]*sectionInfo
	pud map[uint64]*sectionInfo
}

// NewTables returns empty CWTs.
func NewTables() *Tables {
	return &Tables{
		pmd: make(map[uint64]*sectionInfo),
		pud: make(map[uint64]*sectionInfo),
	}
}

// table returns the CWT level responsible for page size s and the shift
// from a VA to its region there: 4KB pages are tracked at PMD grain (2MB
// regions), 2MB and 1GB pages at PUD grain (1GB regions).
func (t *Tables) table(s addr.PageSize) (map[uint64]*sectionInfo, uint) {
	if s == addr.Page4K {
		return t.pmd, addr.Page2M.Shift()
	}
	return t.pud, addr.Page1G.Shift()
}

// Note records that a translation for va at size s now lives in way w.
func (t *Tables) Note(va addr.VirtAddr, s addr.PageSize, w int) {
	m, shift := t.table(s)
	r := uint64(va) >> shift
	si := m[r]
	if si == nil {
		si = &sectionInfo{}
		m[r] = si
	}
	si.ways[s] = si.ways[s].Add(w)
	si.refs[s]++
}

// Moved records a cuckoo displacement of va's translation from way from to
// way to. The from bit stays set conservatively (other pages of the region
// may still live there); only the new way is guaranteed-added.
func (t *Tables) Moved(va addr.VirtAddr, s addr.PageSize, to int) {
	m, shift := t.table(s)
	if si := m[uint64(va)>>shift]; si != nil {
		si.ways[s] = si.ways[s].Add(to)
	} else {
		t.Note(va, s, to)
	}
}

// Drop records that a translation for va at size s was removed. When the
// region's last translation of that size goes, the way bitmap clears.
func (t *Tables) Drop(va addr.VirtAddr, s addr.PageSize) {
	m, shift := t.table(s)
	r := uint64(va) >> shift
	si := m[r]
	if si == nil {
		return
	}
	if si.refs[s] > 0 {
		si.refs[s]--
	}
	if si.refs[s] == 0 {
		si.ways[s] = 0
	}
	empty := true
	for _, sz := range addr.Sizes() {
		if si.refs[sz] != 0 {
			empty = false
		}
	}
	if empty {
		delete(m, r)
	}
}

// Candidates returns, for each page size, the ways a walk for va must
// probe. A zero set for every size means the CWT proves no translation
// exists and the walk can fault without touching the HPTs.
func (t *Tables) Candidates(va addr.VirtAddr) [addr.NumPageSizes]WaySet {
	var out [addr.NumPageSizes]WaySet
	if si := t.pmd[uint64(va)>>addr.Page2M.Shift()]; si != nil {
		out[addr.Page4K] = si.ways[addr.Page4K]
	}
	if si := t.pud[uint64(va)>>addr.Page1G.Shift()]; si != nil {
		out[addr.Page2M] = si.ways[addr.Page2M]
		out[addr.Page1G] = si.ways[addr.Page1G]
	}
	return out
}

// TotalProbes returns the number of parallel HPT probes the candidate sets
// imply.
func (t *Tables) TotalProbes(va addr.VirtAddr) int {
	n := 0
	for _, ws := range t.Candidates(va) {
		n += ws.Count()
	}
	return n
}

// Entries returns the number of live CWT entries at each grain, the memory
// the CWTs consume (each entry is a few bytes; ECPT sizes them at one byte
// of section info per way bitmap).
func (t *Tables) Entries() (pmdEntries, pudEntries int) {
	return len(t.pmd), len(t.pud)
}
