package stats

// HistogramState is the serializable form of a Histogram, used by the
// checkpoint/restore layer (internal/snapshot callers) to carry histogram
// contents across a crash. Counts holds every observed value, whether the
// histogram keeps it inline or in its map.
type HistogramState struct {
	Counts map[int]uint64
	Total  uint64
	Sum    float64
}

// State returns a deep copy of the histogram's contents.
func (h *Histogram) State() HistogramState {
	st := HistogramState{Total: h.total, Sum: h.sum}
	if vs := h.Values(); len(vs) > 0 {
		st.Counts = make(map[int]uint64, len(vs))
		for _, v := range vs {
			st.Counts[v] = h.Count(v)
		}
	}
	return st
}

// Restore replaces the histogram's contents with the recorded state.
func (h *Histogram) Restore(st HistogramState) {
	*h = Histogram{total: st.Total, sum: st.Sum}
	for v, c := range st.Counts {
		if uint(v) < smallValues {
			h.small[v] = c
			continue
		}
		if h.counts == nil {
			h.counts = make(map[int]uint64)
		}
		h.counts[v] = c
	}
}
