package radix

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/phys"
)

// EntryState is one present radix entry. Child is an index into
// State.Nodes (-1 for leaves); absent entries are not recorded.
type EntryState struct {
	Idx   uint16
	Huge  bool
	Child int32
	PPN   addr.PPN
}

// NodeState is one tree node: its backing frame and its present entries.
type NodeState struct {
	Frame   addr.PPN
	Entries []EntryState
}

// State is the serializable form of a PageTable: the tree flattened
// pre-order into an indexed node list (node 0 is the root).
type State struct {
	Levels int
	Nodes  []NodeState
	Stats  Stats
}

// State returns a deep copy of the tree.
func (p *PageTable) State() State {
	st := State{Levels: p.levels, Stats: p.stats}
	var flatten func(n *node) int32
	flatten = func(n *node) int32 {
		id := int32(len(st.Nodes))
		st.Nodes = append(st.Nodes, NodeState{Frame: n.frame})
		for i := range n.entries {
			e := &n.entries[i]
			if !e.present {
				continue
			}
			es := EntryState{Idx: uint16(i), Huge: e.huge, Child: -1, PPN: e.ppn}
			if e.child != nil {
				es.Child = flatten(e.child)
			}
			st.Nodes[id].Entries = append(st.Nodes[id].Entries, es)
		}
		return id
	}
	if p.root != nil {
		flatten(p.root)
	}
	return st
}

// Restore rebuilds a tree from recorded state without allocating: the node
// frames in st are already owned in the restored allocator state.
func Restore(st State, alloc phys.Source) (*PageTable, error) {
	if st.Levels < Levels || st.Levels > MaxLevels {
		return nil, fmt.Errorf("radix: unsupported depth %d", st.Levels)
	}
	p := &PageTable{levels: st.Levels, alloc: alloc, stats: st.Stats}
	nodes := make([]*node, len(st.Nodes))
	for i, ns := range st.Nodes {
		nodes[i] = &node{frame: ns.Frame}
	}
	for i, ns := range st.Nodes {
		n := nodes[i]
		for _, es := range ns.Entries {
			if int(es.Idx) >= EntriesPerNode {
				return nil, fmt.Errorf("radix: entry index %d out of range", es.Idx)
			}
			e := &n.entries[es.Idx]
			e.present = true
			e.huge = es.Huge
			e.ppn = es.PPN
			if es.Child >= 0 {
				if int(es.Child) >= len(nodes) {
					return nil, fmt.Errorf("radix: child index %d out of range", es.Child)
				}
				e.child = nodes[es.Child]
			}
			n.used++
		}
	}
	if len(nodes) > 0 {
		p.root = nodes[0]
	}
	return p, nil
}

// VisitOwnedFrames reports every physical frame the tree owns — one 4KB
// node frame per tree node. The scrubber uses it to prove frame-ownership
// disjointness across tenants.
func (p *PageTable) VisitOwnedFrames(f func(base addr.PPN, bytes uint64)) {
	var walk func(n *node, lvl int)
	walk = func(n *node, lvl int) {
		f(n.frame, 4*addr.KB)
		if lvl == 0 {
			return
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.present && !e.huge && e.child != nil {
				walk(e.child, lvl-1)
			}
		}
	}
	if p.root != nil {
		walk(p.root, p.levels-1)
	}
}

// VisitMappings calls f for every live translation (vpn, size, ppn).
func (p *PageTable) VisitMappings(f func(vpn addr.VPN, s addr.PageSize, ppn addr.PPN)) {
	var walk func(n *node, lvl int, va uint64)
	walk = func(n *node, lvl int, va uint64) {
		for i := range n.entries {
			e := &n.entries[i]
			if !e.present {
				continue
			}
			sub := va | uint64(i)<<(12+9*uint(lvl))
			if lvl == 0 || e.huge {
				f(addr.VPN(sub>>(12+9*uint(lvl))), sizeAtLevel(lvl), e.ppn)
				continue
			}
			if e.child != nil {
				walk(e.child, lvl-1, sub)
			}
		}
	}
	if p.root != nil {
		walk(p.root, p.levels-1, 0)
	}
}

// CheckTables runs the structural consistency checks the scrubber reports:
// per-node used counters must match the present entries, huge leaves may
// only appear at PMD/PUD levels, and the stats node count must equal the
// reachable tree. It returns one message per violation.
func (p *PageTable) CheckTables() []string {
	var bad []string
	reachable := 0
	var walk func(n *node, lvl int)
	walk = func(n *node, lvl int) {
		reachable++
		present := 0
		for i := range n.entries {
			e := &n.entries[i]
			if !e.present {
				continue
			}
			present++
			if e.huge && (lvl == 0 || lvl > 2) {
				bad = append(bad, fmt.Sprintf("huge leaf at level %d entry %d", lvl, i))
			}
			if !e.huge && lvl > 0 && e.child == nil {
				bad = append(bad, fmt.Sprintf("present non-leaf entry without child at level %d entry %d", lvl, i))
			}
			if e.child != nil && lvl > 0 && !e.huge {
				walk(e.child, lvl-1)
			}
		}
		if present != n.used {
			bad = append(bad, fmt.Sprintf("node frame %d at level %d: used %d but %d present entries", n.frame, lvl, n.used, present))
		}
	}
	if p.root != nil {
		walk(p.root, p.levels-1)
	}
	if reachable != p.stats.Nodes {
		bad = append(bad, fmt.Sprintf("stats record %d nodes, tree reaches %d", p.stats.Nodes, reachable))
	}
	return bad
}
