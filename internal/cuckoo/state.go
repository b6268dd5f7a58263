package cuckoo

import (
	"fmt"

	"repro/internal/hashfn"
)

// normalizeConfig applies the defaulting Build performs, shared with the
// restore path so a restored table evaluates thresholds identically.
func normalizeConfig(cfg Config) Config {
	if cfg.UpsizeAt <= 0 {
		cfg.UpsizeAt = 0.6
	}
	if cfg.DownsizeAt < 0 {
		cfg.DownsizeAt = 0.2
	}
	if cfg.MaxKicks <= 0 {
		cfg.MaxKicks = 32
	}
	if cfg.RehashBatch <= 0 {
		cfg.RehashBatch = 1
	}
	return cfg
}

// WayState is one way's slot array, verbatim.
type WayState struct {
	Slots []Entry
}

// TableState is the serializable form of a Table. The hash family, mixer,
// and RNG are not part of the state: the family is a pure function of the
// Config's HashSeed, and the RNG is owned (and separately positioned) by
// whoever supplied Config.Rand.
type TableState struct {
	Cur       []WayState
	Next      []WayState // nil when no resize is in flight
	RehashPtr []uint64
	Occupied  uint64
	Stats     Stats
}

func captureWays(ws []*way) []WayState {
	if ws == nil {
		return nil
	}
	out := make([]WayState, len(ws))
	for i, w := range ws {
		out[i].Slots = make([]Entry, len(w.slots))
		copy(out[i].Slots, w.slots)
	}
	return out
}

func restoreWays(st []WayState, fns []hashfn.Func) []*way {
	if st == nil {
		return nil
	}
	out := make([]*way, len(st))
	for i, ws := range st {
		w := &way{slots: make([]Entry, len(ws.Slots)), fn: fns[i]}
		copy(w.slots, ws.Slots)
		out[i] = w
	}
	return out
}

// State returns a deep copy of the table's contents and counters.
func (t *Table) State() TableState {
	st := TableState{
		Cur:       captureWays(t.cur),
		Next:      captureWays(t.next),
		RehashPtr: make([]uint64, len(t.rehashPtr)),
		Occupied:  t.occupied,
		Stats:     t.stats,
	}
	copy(st.RehashPtr, t.rehashPtr)
	return st
}

// RestoreTable rebuilds a table from recorded state without invoking the
// AllocWays hook — the physical memory behind the ways is already owned in
// the restored allocator state. cfg must carry the same Ways/HashSeed as
// the captured table (the hash family is re-derived from them) and, for
// bit-identical resumption, a Rand repositioned to its captured draw
// count. It returns an error for state checkGeometry rejects and for a
// stored key in a slot where a lookup of it would not look.
func RestoreTable(cfg Config, st TableState) (*Table, error) {
	cfg = normalizeConfig(cfg)
	rng := cfg.Rand
	if rng == nil {
		panic("cuckoo: RestoreTable requires an explicitly positioned Config.Rand")
	}
	if err := checkGeometry(st, cfg.Ways); err != nil {
		return nil, err
	}
	t := &Table{
		cfg:       cfg,
		fns:       hashfn.Family(cfg.HashSeed, cfg.Ways),
		rehashPtr: make([]uint64, len(st.RehashPtr)),
		occupied:  st.Occupied,
		stats:     st.Stats,
		rng:       rng,
	}
	t.mixer = hashfn.NewMixer(t.fns)
	t.cur = restoreWays(st.Cur, t.fns)
	t.next = restoreWays(st.Next, t.fns)
	copy(t.rehashPtr, st.RehashPtr)
	for i := range t.cur {
		for _, ws := range [][]*way{t.cur, t.next} {
			if ws == nil {
				continue
			}
			for j, e := range ws[i].slots {
				if e.Key == EmptyKey {
					continue
				}
				if w, idx := t.locate(i, e.Key); w != ws[i] || idx != uint64(j) {
					return nil, fmt.Errorf("cuckoo: way %d slot %d holds key %#x, which a lookup would not find there", i, j, e.Key)
				}
			}
		}
	}
	return t, nil
}

// checkGeometry rejects state whose ways the table would index out of
// range. It needs exactly `ways` current ways sharing one power-of-two slot
// count, one rehash pointer per way and, mid-resize, exactly `ways` target
// ways sharing one power-of-two slot count, with every pointer inside its
// current way.
func checkGeometry(st TableState, ways int) error {
	size := func(ws []WayState) uint64 { // 0 unless the shape is valid
		if len(ws) != ways || ways == 0 || len(ws[0].Slots)&(len(ws[0].Slots)-1) != 0 {
			return 0
		}
		for _, w := range ws {
			if len(w.Slots) != len(ws[0].Slots) {
				return 0
			}
		}
		return uint64(len(ws[0].Slots))
	}
	cur := size(st.Cur)
	ok := cur > 0 && len(st.RehashPtr) == ways && (st.Next == nil || size(st.Next) > 0)
	for _, p := range st.RehashPtr {
		ok = ok && (st.Next == nil || p <= cur)
	}
	if !ok {
		return fmt.Errorf("cuckoo: %d ways (%d resizing) and %d rehash pointers do not form %d ways of one power-of-two size",
			len(st.Cur), len(st.Next), len(st.RehashPtr), ways)
	}
	return nil
}
