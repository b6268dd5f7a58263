package cache

import "fmt"

// CacheState is one level's tag array, each set MRU-first with its empty
// slots last, and counters.
type CacheState struct {
	Tags  []uint64
	Stats Stats
}

// HierarchyState is the serializable form of a Hierarchy.
type HierarchyState struct {
	Levels   [3]CacheState
	DRAMHits uint64
}

// State returns a deep copy of the hierarchy's tags and counters. Each set
// is emitted in recency order, the slots its recency word names.
func (h *Hierarchy) State() HierarchyState {
	st := HierarchyState{DRAMHits: h.dramHits}
	for i := range h.levels {
		c := &h.levels[i]
		w := uint64(c.ways)
		tags := make([]uint64, 0, len(c.tags))
		for si, r := range c.recency {
			set := c.tags[uint64(si)*w : uint64(si)*w+w]
			for range set {
				tags = append(tags, set[r&15])
				r >>= 4
			}
		}
		st.Levels[i] = CacheState{Tags: tags, Stats: c.stats}
	}
	return st
}

// RestoreHierarchy rebuilds a hierarchy from recorded state. cfg must match
// the captured hierarchy's geometry — the tag arrays are restored verbatim,
// with every set in identity recency order, so a size mismatch is a
// corruption, not a migration. So is a set no run can produce: a repeated
// tag, an empty slot before a valid one (fills rely on the empties being a
// suffix), or a tag whose line belongs to another set.
func RestoreHierarchy(cfg HierarchyConfig, st HierarchyState) (*Hierarchy, error) {
	h := NewHierarchy(cfg)
	for i := range h.levels {
		c := &h.levels[i]
		if len(st.Levels[i].Tags) != len(c.tags) {
			return nil, fmt.Errorf("cache: level %d has %d tag slots, snapshot carries %d",
				i, len(c.tags), len(st.Levels[i].Tags))
		}
		copy(c.tags, st.Levels[i].Tags)
		if err := c.checkSets(); err != nil {
			return nil, fmt.Errorf("cache: level %d: %w", i, err)
		}
		c.stats = st.Levels[i].Stats
	}
	h.dramHits = st.DRAMHits
	return h, nil
}

// checkSets reports the first set of a freshly restored level (every set
// in identity recency order) that breaks a recency invariant.
func (c *Cache) checkSets() error {
	w := uint64(c.ways)
	for si := uint64(0); si < c.sets; si++ {
		set := c.tags[si*w : si*w+w]
		for k, tag := range set {
			switch {
			case tag == 0:
				continue
			case k > 0 && set[k-1] == 0:
				return fmt.Errorf("set %d: empty slot before valid slot %d", si, k)
			case c.setOf(tag-1) != si:
				return fmt.Errorf("set %d: slot %d holds line %#x of set %d", si, k, tag-1, c.setOf(tag-1))
			}
			for _, prev := range set[:k] {
				if prev == tag {
					return fmt.Errorf("set %d: line %#x appears twice", si, tag-1)
				}
			}
		}
	}
	return nil
}
