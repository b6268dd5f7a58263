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

// A node is one 4KB tree node laid out as the hardware sees it: 512 PTE
// words. Each word carries a present bit, a huge bit and a payload above
// bit 12: the PPN of a leaf, or the id of the child node for a table
// entry. The node holds no Go pointers, so a simulated frame costs exactly
// 4KB of host heap and nothing for the GC to scan.
type node [EntriesPerNode]uint64

const (
	ptePresent uint64 = 1 << 0
	pteHuge    uint64 = 1 << 7 // leaf at a non-PTE level (x86's PS bit)
	pteShift          = 12
	// maxPayload bounds a PPN or node id so it survives the shift into a
	// PTE word.
	maxPayload = 1<<(64-pteShift) - 1
)

func leafPTE(ppn addr.PPN, huge bool) uint64 {
	w := uint64(ppn)<<pteShift | ptePresent
	if huge {
		w |= pteHuge
	}
	return w
}

func tablePTE(id int32) uint64 { return uint64(id)<<pteShift | ptePresent }

// isTable reports whether word w at level lvl points to a child node.
func isTable(w uint64, lvl int) bool {
	return w&ptePresent != 0 && w&pteHuge == 0 && lvl > 0
}

func payload(w uint64) uint64 { return w >> pteShift }

// nodeRef is the host-side bookkeeping of one node id: the PTE page, its
// backing frame and the count of present entries (teardown accounting).
// A freed id has a nil pte and sits on PageTable.freeIDs.
type nodeRef struct {
	pte   *node
	frame addr.PPN
	used  int32
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
	nodes []nodeRef // indexed by node id; id 0 is the root
	// Not in the snapshot: Restore numbers the snapshot's nodes densely, so a restored table has no free id
	freeIDs []int32 // recycled ids, reused LIFO
	levels  int
	// Not in the snapshot: Restore reattaches the separately restored physical allocator
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
	if _, err := p.newNode(); err != nil {
		return nil, err
	}
	return p, nil
}

// newNode allocates a frame for a fresh node and returns the node's id.
func (p *PageTable) newNode() (int32, error) {
	ppn, cycles, err := p.alloc.Alloc(4 * addr.KB)
	p.stats.AllocCycles += cycles
	if err != nil {
		return 0, err
	}
	p.stats.Nodes++
	if p.stats.Nodes > p.stats.PeakNodes {
		p.stats.PeakNodes = p.stats.Nodes
	}
	p.stats.MaxContiguousAlloc = 4 * addr.KB
	ref := nodeRef{pte: new(node), frame: ppn}
	if k := len(p.freeIDs); k > 0 {
		id := p.freeIDs[k-1]
		p.freeIDs = p.freeIDs[:k-1]
		p.nodes[id] = ref
		return id, nil
	}
	p.nodes = append(p.nodes, ref)
	return int32(len(p.nodes) - 1), nil
}

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
	if uint64(ppn) > maxPayload {
		return 0, fmt.Errorf("radix: PPN %#x does not fit a PTE", uint64(ppn))
	}
	va := vpn.Addr(s)
	leaf := leafLevel(s)
	before := p.stats.AllocCycles
	id := int32(0)
	for lvl := p.levels - 1; lvl > leaf; lvl-- {
		idx := addr.RadixIndex(va, lvl)
		w := p.nodes[id].pte[idx]
		if w&ptePresent == 0 {
			child, err := p.newNode()
			if err != nil {
				return p.stats.AllocCycles - before, err
			}
			// newNode may grow p.nodes, so index it afresh.
			p.nodes[id].pte[idx] = tablePTE(child)
			p.nodes[id].used++
			id = child
			continue
		}
		if w&pteHuge != 0 {
			return 0, fmt.Errorf("radix: %v mapping overlaps huge page at level %d", s, lvl)
		}
		id = int32(payload(w))
	}
	ref := &p.nodes[id]
	idx := addr.RadixIndex(va, leaf)
	w := ref.pte[idx]
	if w&ptePresent == 0 {
		ref.used++
	} else if isTable(w, leaf) {
		// Huge-page promotion over an existing lower-level table (THP
		// collapse): release the subtree it replaces.
		p.freeSubtree(int32(payload(w)), leaf-1)
	}
	ref.pte[idx] = leafPTE(ppn, leaf > 0)
	return p.stats.AllocCycles - before, nil
}

// freeSubtree releases node id (at level lvl) and all tree nodes below it,
// returning their ids to the free list.
func (p *PageTable) freeSubtree(id int32, lvl int) {
	ref := &p.nodes[id]
	if lvl > 0 {
		for _, w := range ref.pte {
			if isTable(w, lvl) {
				p.freeSubtree(int32(payload(w)), lvl-1)
			}
		}
	}
	p.alloc.Free(ref.frame, 0)
	*ref = nodeRef{}
	p.freeIDs = append(p.freeIDs, id)
	p.stats.Nodes--
}

// Unmap removes the translation for vpn at the given page size. Like Linux,
// intermediate nodes are not eagerly freed.
func (p *PageTable) Unmap(vpn addr.VPN, s addr.PageSize) (uint64, bool) {
	va := vpn.Addr(s)
	leaf := leafLevel(s)
	id := uint64(0)
	for lvl := p.levels - 1; lvl > leaf; lvl-- {
		w := p.nodes[id].pte[addr.RadixIndex(va, lvl)]
		if !isTable(w, lvl) {
			return 0, false
		}
		id = payload(w)
	}
	ref := &p.nodes[id]
	idx := addr.RadixIndex(va, leaf)
	w := ref.pte[idx]
	if w&ptePresent == 0 || (leaf > 0) != (w&pteHuge != 0) {
		return 0, false
	}
	ref.pte[idx] = 0
	ref.used--
	return 0, true
}

// Translate resolves va by walking the tree.
func (p *PageTable) Translate(va addr.VirtAddr) (pt.Translation, bool) {
	id := uint64(0)
	for lvl := p.levels - 1; lvl >= 0; lvl-- {
		w := p.nodes[id].pte[addr.RadixIndex(va, lvl)]
		if w&ptePresent == 0 {
			return pt.Translation{}, false
		}
		if lvl == 0 || w&pteHuge != 0 {
			return pt.Translation{PPN: addr.PPN(payload(w)), Size: sizeAtLevel(lvl)}, true
		}
		id = payload(w)
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

// AppendWalkAddrs appends to pas the physical addresses of the page-table
// entries a hardware walker reads for va, root first. The walk stops early
// at a huge leaf or a non-present entry. The boolean reports whether a
// translation was found. A walk is at most MaxLevels accesses, so a caller
// that reuses a scratch buffer of that capacity walks without allocating.
func (p *PageTable) AppendWalkAddrs(pas []addr.PhysAddr, va addr.VirtAddr) ([]addr.PhysAddr, pt.Translation, bool) {
	id := uint64(0)
	for lvl := p.levels - 1; lvl >= 0; lvl-- {
		ref := &p.nodes[id]
		idx := addr.RadixIndex(va, lvl)
		pas = append(pas, ref.frame.Addr(addr.Page4K)+addr.PhysAddr(uint64(idx)*entryBytes))
		w := ref.pte[idx]
		if w&ptePresent == 0 {
			return pas, pt.Translation{}, false
		}
		if lvl == 0 || w&pteHuge != 0 {
			return pas, pt.Translation{PPN: addr.PPN(payload(w)), Size: sizeAtLevel(lvl)}, true
		}
		id = payload(w)
	}
	return pas, pt.Translation{}, false
}

// Free releases every tree node (process teardown).
func (p *PageTable) Free() {
	p.freeSubtree(0, p.levels-1)
	p.nodes, p.freeIDs = nil, nil
}
