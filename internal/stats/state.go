package stats

// HistogramState is the serializable form of a Histogram, used by the
// checkpoint/restore layer (internal/snapshot callers) to carry histogram
// contents across a crash.
type HistogramState struct {
	// Bins holds every observed value with its count, in ascending value
	// order, whether the histogram keeps the value inline or in its map.
	Bins []Bin
	// Counts is the value→count map that checkpoints written before Bins
	// carry instead. gob writes a map in iteration order, so two encodings
	// of one state could differ byte for byte; State leaves Counts nil, and
	// Restore reads it only so those checkpoints still resume.
	Counts map[int]uint64
	Total  uint64
	// Checkpoints written before Mean summed the bins also carry a Sum
	// field; gob skips it on decode.
}

// Bin is one observed value and how many times it was observed.
type Bin struct {
	Value int
	Count uint64
}

// State returns a deep copy of the histogram's contents.
func (h *Histogram) State() HistogramState {
	st := HistogramState{Counts: nil, Total: h.total}
	if vs := h.Values(); len(vs) > 0 {
		st.Bins = make([]Bin, len(vs))
		for i, v := range vs {
			st.Bins[i] = Bin{Value: v, Count: h.Count(v)}
		}
	}
	return st
}

// Restore replaces the histogram's contents with the recorded state.
func (h *Histogram) Restore(st HistogramState) {
	*h = Histogram{total: st.Total}
	for _, b := range st.Bins {
		h.put(b.Value, b.Count)
	}
	for v, c := range st.Counts { //mehpt:allow detflow -- keyed stores: the restored histogram is the same in any order
		h.put(v, c)
	}
}

// put sets the count of value v, leaving the total alone.
func (h *Histogram) put(v int, c uint64) {
	if uint(v) < smallValues {
		h.small[v] = c
		return
	}
	if h.counts == nil {
		h.counts = make(map[int]uint64)
	}
	h.counts[v] = c
}
