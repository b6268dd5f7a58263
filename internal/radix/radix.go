// Package radix implements the x86-64 radix-tree page table the paper uses
// as its conventional baseline: a four-level tree (PGD → PUD → PMD → PTE)
// walked sequentially, with 2MB and 1GB leaves for huge pages (Figure 1).
//
// Each tree node occupies one 4KB physical frame, so the radix organization
// never needs more than page-sized contiguous allocations — the property
// Table I's column 3 highlights.
package radix

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/phys"
	"repro/internal/pt"
)

// Levels is the default depth of the tree: PGD(3), PUD(2), PMD(1), PTE(0).
// Five-level paging (Intel's LA57, the paper's Section I scalability
// concern) adds a P4D root above the PGD.
const Levels = 4

// MaxLevels is the deepest supported tree (5-level paging).
const MaxLevels = 5

// EntriesPerNode is the fan-out of each level: 512 8-byte entries per 4KB
// node.
const EntriesPerNode = 512

// entryBytes is the size of one radix PTE in memory.
const entryBytes = 8

// leafLevel returns the tree level at which a page of size s terminates:
// PTE for 4KB, PMD for 2MB, PUD for 1GB.
func leafLevel(s addr.PageSize) int {
	switch s {
	case addr.Page4K:
		return 0
	case addr.Page2M:
		return 1
	case addr.Page1G:
		return 2
	}
	panic(fmt.Sprintf("radix: invalid page size %v", s))
}

type entry struct {
	present bool
	huge    bool // leaf at a non-PTE level
	child   *node
	ppn     addr.PPN
}

type node struct {
	frame   addr.PPN // physical frame backing this node
	entries [EntriesPerNode]entry
	used    int // number of present entries, for teardown accounting
}

// Stats aggregates the allocation behaviour of the tree.
type Stats struct {
	Nodes              int // tree nodes (4KB frames) currently allocated
	PeakNodes          int
	AllocCycles        uint64
	MaxContiguousAlloc uint64 // always 4KB by construction
}

// PageTable is one process's radix-tree page table.
type PageTable struct {
	root   *node
	levels int
	//mehpt:transient -- Restore reattaches the separately restored physical allocator
	alloc phys.Source
	stats Stats
}

// NewPageTable creates an empty four-level tree with just the root node.
func NewPageTable(alloc phys.Source) (*PageTable, error) {
	return NewPageTableLevels(alloc, Levels)
}

// NewPageTableLevels creates a tree of the given depth (4 = x86-64, 5 =
// LA57). A deeper tree covers more virtual address space at the cost of
// one more dependent memory access per uncached walk — the scalability
// trend the paper argues against.
func NewPageTableLevels(alloc phys.Source, levels int) (*PageTable, error) {
	if levels < Levels || levels > MaxLevels {
		return nil, fmt.Errorf("radix: unsupported depth %d", levels)
	}
	p := &PageTable{alloc: alloc, levels: levels}
	root, err := p.newNode()
	if err != nil {
		return nil, err
	}
	p.root = root
	return p, nil
}

// Depth returns the tree depth (4 or 5).
func (p *PageTable) Depth() int { return p.levels }

func (p *PageTable) newNode() (*node, error) {
	ppn, cycles, err := p.alloc.Alloc(4 * addr.KB)
	p.stats.AllocCycles += cycles
	if err != nil {
		return nil, err
	}
	p.stats.Nodes++
	if p.stats.Nodes > p.stats.PeakNodes {
		p.stats.PeakNodes = p.stats.Nodes
	}
	p.stats.MaxContiguousAlloc = 4 * addr.KB
	return &node{frame: ppn}, nil
}

// Stats returns the accumulated statistics.
func (p *PageTable) Stats() Stats { return p.stats }

// FootprintBytes returns the page-table memory held: one 4KB frame per node.
func (p *PageTable) FootprintBytes() uint64 {
	return uint64(p.stats.Nodes) * 4 * addr.KB
}

// PeakFootprintBytes returns the high-water mark of FootprintBytes.
func (p *PageTable) PeakFootprintBytes() uint64 {
	return uint64(p.stats.PeakNodes) * 4 * addr.KB
}

// MaxContiguousAlloc returns 4KB: the radix tree's whole appeal.
func (p *PageTable) MaxContiguousAlloc() uint64 { return p.stats.MaxContiguousAlloc }

// AllocCycles returns the cycles spent allocating tree nodes.
func (p *PageTable) AllocCycles() uint64 { return p.stats.AllocCycles }

// Moves returns the number of page-table entries relocated by the
// organization — always 0 for radix, by construction: a PTE's slot is fixed
// by its virtual address (the radix indices), the tree grows by allocating
// fresh nodes without touching existing entries, and there is no rehashing.
// Hashed organizations report nonzero counts here because elastic resizing
// migrates entries between tables (sim.Result.PTMoves, Figure 13).
func (p *PageTable) Moves() uint64 { return 0 }

// Map installs vpn→ppn at the given page size, allocating intermediate
// nodes as needed. It returns the allocation cycle cost.
func (p *PageTable) Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error) {
	va := vpn.Addr(s)
	leaf := leafLevel(s)
	before := p.stats.AllocCycles
	n := p.root
	for lvl := p.levels - 1; lvl > leaf; lvl-- {
		idx := addr.RadixIndex(va, lvl)
		e := &n.entries[idx]
		if !e.present {
			child, err := p.newNode()
			if err != nil {
				return p.stats.AllocCycles - before, err
			}
			e.present = true
			e.child = child
			n.used++
		} else if e.huge {
			return 0, fmt.Errorf("radix: %v mapping overlaps huge page at level %d", s, lvl)
		}
		n = e.child
	}
	idx := addr.RadixIndex(va, leaf)
	e := &n.entries[idx]
	if !e.present {
		n.used++
	} else if e.child != nil {
		// Huge-page promotion over an existing lower-level table (THP
		// collapse): release the subtree it replaces.
		p.freeSubtree(e.child, leaf-1)
	}
	e.present = true
	e.huge = leaf > 0
	e.child = nil
	e.ppn = ppn
	return p.stats.AllocCycles - before, nil
}

// freeSubtree releases n and all tree nodes below it.
func (p *PageTable) freeSubtree(n *node, lvl int) {
	if lvl > 0 {
		for i := range n.entries {
			e := &n.entries[i]
			if e.present && !e.huge && e.child != nil {
				p.freeSubtree(e.child, lvl-1)
			}
		}
	}
	p.alloc.Free(n.frame, 0)
	p.stats.Nodes--
}

// Unmap removes the translation for vpn at the given page size. Like Linux,
// intermediate nodes are not eagerly freed.
func (p *PageTable) Unmap(vpn addr.VPN, s addr.PageSize) (uint64, bool) {
	va := vpn.Addr(s)
	leaf := leafLevel(s)
	n := p.root
	for lvl := p.levels - 1; lvl > leaf; lvl-- {
		e := &n.entries[addr.RadixIndex(va, lvl)]
		if !e.present || e.child == nil {
			return 0, false
		}
		n = e.child
	}
	e := &n.entries[addr.RadixIndex(va, leaf)]
	if !e.present || (leaf > 0) != e.huge {
		return 0, false
	}
	e.present = false
	e.ppn = 0
	n.used--
	return 0, true
}

// Translate resolves va by walking the tree.
//
//mehpt:hotpath
func (p *PageTable) Translate(va addr.VirtAddr) (pt.Translation, bool) {
	n := p.root
	for lvl := p.levels - 1; lvl >= 0; lvl-- {
		e := &n.entries[addr.RadixIndex(va, lvl)]
		if !e.present {
			return pt.Translation{}, false
		}
		if lvl == 0 || e.huge {
			return pt.Translation{PPN: e.ppn, Size: sizeAtLevel(lvl)}, true
		}
		n = e.child
	}
	return pt.Translation{}, false
}

func sizeAtLevel(lvl int) addr.PageSize {
	switch lvl {
	case 0:
		return addr.Page4K
	case 1:
		return addr.Page2M
	case 2:
		return addr.Page1G
	}
	panic("radix: no page size at PGD level")
}

// TranslateSize resolves vpn at exactly the given page size.
//
//mehpt:hotpath
func (p *PageTable) TranslateSize(vpn addr.VPN, s addr.PageSize) (addr.PPN, bool) {
	tr, ok := p.Translate(vpn.Addr(s))
	if !ok || tr.Size != s {
		return 0, false
	}
	return tr.PPN, true
}

// AppendWalkAddrs appends to pas the physical addresses of the page-table
// entries a hardware walker reads for va, root first. The walk stops early
// at a huge leaf or a non-present entry. The boolean reports whether a
// translation was found. A walk is at most MaxLevels accesses, so a caller
// that reuses a scratch buffer of that capacity walks without allocating.
//
//mehpt:hotpath
func (p *PageTable) AppendWalkAddrs(pas []addr.PhysAddr, va addr.VirtAddr) ([]addr.PhysAddr, pt.Translation, bool) {
	n := p.root
	for lvl := p.levels - 1; lvl >= 0; lvl-- {
		idx := addr.RadixIndex(va, lvl)
		pas = append(pas, n.frame.Addr(addr.Page4K)+addr.PhysAddr(uint64(idx)*entryBytes)) //mehpt:allow hotalloc -- appends into caller-owned scratch; steady state never grows it
		e := &n.entries[idx]
		if !e.present {
			return pas, pt.Translation{}, false
		}
		if lvl == 0 || e.huge {
			return pas, pt.Translation{PPN: e.ppn, Size: sizeAtLevel(lvl)}, true
		}
		n = e.child
	}
	return pas, pt.Translation{}, false
}

// NodeFrameAt returns the physical frame of the tree node traversed at the
// given level for va (Levels-1 = root), and whether the walk reaches it.
// The MMU's page-walk caches key on these frames.
func (p *PageTable) NodeFrameAt(va addr.VirtAddr, lvl int) (addr.PPN, bool) {
	n := p.root
	for l := p.levels - 1; l > lvl; l-- {
		e := &n.entries[addr.RadixIndex(va, l)]
		if !e.present || e.child == nil {
			return 0, false
		}
		n = e.child
	}
	return n.frame, true
}

// Free releases every tree node (process teardown).
func (p *PageTable) Free() {
	p.freeSubtree(p.root, p.levels-1)
	p.root = nil
}
