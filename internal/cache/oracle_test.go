package cache

import (
	"reflect"
	"testing"

	"repro/internal/addr"
)

// refLevel is the naive reference model of one cache level: each set a
// slice of resident line numbers, MRU first, updated by copy-shift. It
// shares no code with Cache.
type refLevel struct {
	sets     [][]uint64
	ways     int
	lineBits uint
	latency  uint64
	stats    Stats
}

func newRefLevel(cfg Config) refLevel {
	sets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways)
	if sets == 0 {
		sets = 1
	}
	r := refLevel{sets: make([][]uint64, sets), ways: cfg.Ways, latency: cfg.Latency}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		r.lineBits++
	}
	return r
}

// lookup reports whether pa's line is resident, moving it to the front of
// its set on a hit.
func (r *refLevel) lookup(pa addr.PhysAddr) bool {
	ln := uint64(pa) >> r.lineBits
	set := r.sets[ln%uint64(len(r.sets))]
	for i, got := range set {
		if got == ln {
			copy(set[1:i+1], set[:i])
			set[0] = ln
			r.stats.Hits++
			return true
		}
	}
	r.stats.Misses++
	return false
}

// fill puts pa's line at the front of its set, dropping the set's last
// line when the set is full.
func (r *refLevel) fill(pa addr.PhysAddr) {
	ln := uint64(pa) >> r.lineBits
	set := &r.sets[ln%uint64(len(r.sets))]
	if len(*set) < r.ways {
		*set = append(*set, 0)
	}
	copy((*set)[1:], *set)
	(*set)[0] = ln
}

// refHierarchy is the reference model of a Hierarchy: probe L1 outward,
// fill every level inward of the one that hit (all of them on a DRAM
// access).
type refHierarchy struct {
	levels   [3]refLevel
	dram     uint64
	dramHits uint64
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	return &refHierarchy{
		levels: [3]refLevel{newRefLevel(cfg.L1), newRefLevel(cfg.L2), newRefLevel(cfg.L3)},
		dram:   cfg.DRAMLatency,
	}
}

func (r *refHierarchy) access(pa addr.PhysAddr) uint64 {
	for i := range r.levels {
		if r.levels[i].lookup(pa) {
			for j := 0; j < i; j++ {
				r.levels[j].fill(pa)
			}
			return r.levels[i].latency
		}
	}
	for i := range r.levels {
		r.levels[i].fill(pa)
	}
	r.dramHits++
	return r.dram
}

// state is the snapshot a Hierarchy in the same state must produce: per
// level, every set's tags (line+1) MRU first, padded with zeros to the
// set's ways.
func (r *refHierarchy) state() HierarchyState {
	st := HierarchyState{DRAMHits: r.dramHits}
	for i := range r.levels {
		l := &r.levels[i]
		var tags []uint64
		for _, set := range l.sets {
			for k := 0; k < l.ways; k++ {
				tag := uint64(0)
				if k < len(set) {
					tag = set[k] + 1
				}
				tags = append(tags, tag)
			}
		}
		st.Levels[i] = CacheState{Tags: tags, Stats: l.stats}
	}
	return st
}

// checkRef fails the test unless h's counters and snapshot equal the
// reference model's.
func checkRef(t *testing.T, op int, h *Hierarchy, ref *refHierarchy) {
	t.Helper()
	for i := range ref.levels {
		if got, want := h.Level(i).Stats(), ref.levels[i].stats; got != want {
			t.Fatalf("op %d: L%d stats %+v, reference %+v", op, i+1, got, want)
		}
	}
	if got, want := h.DRAMAccesses(), ref.dramHits; got != want {
		t.Fatalf("op %d: DRAM accesses %d, reference %d", op, got, want)
	}
	if got, want := h.State(), ref.state(); !reflect.DeepEqual(got, want) {
		t.Fatalf("op %d: State differs from the reference:\n got %v\nwant %v", op, got, want)
	}
}
