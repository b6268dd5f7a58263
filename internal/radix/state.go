package radix

import (
	"fmt"
	"strings"

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
	var flatten func(id uint64, lvl int) int32
	flatten = func(id uint64, lvl int) int32 {
		ref := &p.nodes[id]
		out := int32(len(st.Nodes))
		st.Nodes = append(st.Nodes, NodeState{Frame: ref.frame})
		for i, w := range ref.pte {
			if w&ptePresent == 0 {
				continue
			}
			es := EntryState{Idx: uint16(i), Huge: w&pteHuge != 0, Child: -1}
			if isTable(w, lvl) {
				es.Child = flatten(payload(w), lvl-1)
			} else {
				es.PPN = addr.PPN(payload(w))
			}
			st.Nodes[out].Entries = append(st.Nodes[out].Entries, es)
		}
		return out
	}
	if len(p.nodes) > 0 {
		flatten(0, p.levels-1)
	}
	return st
}

// Restore rebuilds a tree from recorded state without allocating: the node
// frames in st are already owned in the restored allocator state. Node i
// of st becomes node id i. The recorded nodes must form one tree rooted at
// node 0, with every entry well formed for its level and the node count
// the stats record, or Restore returns an error.
func Restore(st State, alloc phys.Source) (*PageTable, error) {
	if st.Levels < Levels || st.Levels > MaxLevels {
		return nil, fmt.Errorf("radix: unsupported depth %d", st.Levels)
	}
	if len(st.Nodes) == 0 {
		return nil, fmt.Errorf("radix: snapshot has no root node")
	}
	p := &PageTable{levels: st.Levels, alloc: alloc, stats: st.Stats}
	p.nodes = make([]nodeRef, len(st.Nodes))
	var build func(id int32, lvl int) error
	build = func(id int32, lvl int) error {
		ref := &p.nodes[id]
		if ref.pte != nil {
			return fmt.Errorf("radix: node %d reached twice", id)
		}
		ns := st.Nodes[id]
		*ref = nodeRef{pte: new(node), frame: ns.Frame, used: int32(len(ns.Entries))}
		for _, es := range ns.Entries {
			if int(es.Idx) >= EntriesPerNode || ref.pte[es.Idx] != 0 {
				return fmt.Errorf("radix: node %d: entry index %d out of range or repeated", id, es.Idx)
			}
			if es.Huge && (lvl == 0 || lvl > 2) {
				return fmt.Errorf("radix: node %d: huge leaf at level %d", id, lvl)
			}
			if lvl == 0 || es.Huge {
				if es.Child >= 0 || uint64(es.PPN) > maxPayload {
					return fmt.Errorf("radix: node %d: malformed leaf entry %d", id, es.Idx)
				}
				ref.pte[es.Idx] = leafPTE(es.PPN, es.Huge)
				continue
			}
			if es.Child < 0 || int(es.Child) >= len(st.Nodes) {
				return fmt.Errorf("radix: node %d: child index %d out of range", id, es.Child)
			}
			ref.pte[es.Idx] = tablePTE(es.Child)
			if err := build(es.Child, lvl-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(0, st.Levels-1); err != nil {
		return nil, err
	}
	for i := range p.nodes {
		if p.nodes[i].pte == nil {
			return nil, fmt.Errorf("radix: node %d is not reachable from the root", i)
		}
	}
	if bad := p.CheckTables(); len(bad) > 0 {
		return nil, fmt.Errorf("radix: %s", strings.Join(bad, "; "))
	}
	return p, nil
}

// VisitOwnedFrames reports every physical frame the tree owns — one 4KB
// node frame per tree node. The scrubber uses it to prove frame-ownership
// disjointness across tenants.
func (p *PageTable) VisitOwnedFrames(f func(base addr.PPN, bytes uint64)) {
	var walk func(id uint64, lvl int)
	walk = func(id uint64, lvl int) {
		ref := &p.nodes[id]
		f(ref.frame, 4*addr.KB)
		for _, w := range ref.pte {
			if isTable(w, lvl) {
				walk(payload(w), lvl-1)
			}
		}
	}
	if len(p.nodes) > 0 {
		walk(0, p.levels-1)
	}
}

// VisitMappings calls f for every live translation (vpn, size, ppn).
func (p *PageTable) VisitMappings(f func(vpn addr.VPN, s addr.PageSize, ppn addr.PPN)) {
	var visit func(id uint64, lvl int, va uint64)
	visit = func(id uint64, lvl int, va uint64) {
		for i, w := range p.nodes[id].pte {
			if w&ptePresent == 0 {
				continue
			}
			sub := va | uint64(i)<<(12+9*uint(lvl))
			if isTable(w, lvl) {
				visit(payload(w), lvl-1, sub)
				continue
			}
			f(addr.VPN(sub>>(12+9*uint(lvl))), sizeAtLevel(lvl), addr.PPN(payload(w)))
		}
	}
	if len(p.nodes) > 0 {
		visit(0, p.levels-1, 0)
	}
}

// CheckTables runs the structural consistency checks the scrubber reports:
// per-node used counters must match the present entries, huge leaves may
// only appear at PMD/PUD levels, table entries must name live node ids,
// and the stats node count must equal the reachable tree. It returns one
// message per violation.
func (p *PageTable) CheckTables() []string {
	var bad []string
	reachable := 0
	var check func(id uint64, lvl int)
	check = func(id uint64, lvl int) {
		ref := &p.nodes[id]
		reachable++
		present := int32(0)
		for i, w := range ref.pte {
			if w&ptePresent == 0 {
				continue
			}
			present++
			if w&pteHuge != 0 && (lvl == 0 || lvl > 2) {
				bad = append(bad, fmt.Sprintf("huge leaf at level %d entry %d", lvl, i))
			}
			if !isTable(w, lvl) {
				continue
			}
			if c := payload(w); c >= uint64(len(p.nodes)) || p.nodes[c].pte == nil {
				bad = append(bad, fmt.Sprintf("level %d entry %d names dead node id %d", lvl, i, c))
			} else {
				check(c, lvl-1)
			}
		}
		if present != ref.used {
			bad = append(bad, fmt.Sprintf("node frame %d at level %d: used %d but %d present entries", ref.frame, lvl, ref.used, present))
		}
	}
	if len(p.nodes) > 0 {
		check(0, p.levels-1)
	}
	if reachable != p.stats.Nodes {
		bad = append(bad, fmt.Sprintf("stats record %d nodes, tree reaches %d", p.stats.Nodes, reachable))
	}
	return bad
}
