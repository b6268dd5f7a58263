package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// TestHistogramMergeOrderIndependent pins the fix for a real determinism
// bug: Merge and Mean used to accumulate a sum in map iteration order, and
// float addition is not associative, so bit-identical inputs produced
// run-to-run drift in Mean(). The value mix below (one huge value plus
// many small ones) makes the rounding order-sensitive: folding the small
// values after the huge one loses them entirely.
func TestHistogramMergeOrderIndependent(t *testing.T) {
	var src Histogram
	src.Add(1 << 60)
	for i := 0; i < 1000; i++ {
		src.Add(1)
	}
	for i := 0; i < 500; i++ {
		src.Add(i * 7)
	}

	var wantSum float64
	for _, v := range src.Values() {
		wantSum += float64(v) * float64(src.Count(v))
	}
	wantMean := wantSum / float64(src.Total())

	for trial := 0; trial < 8; trial++ {
		var h Histogram
		h.Merge(&src)
		if got := h.Mean(); math.Float64bits(got) != math.Float64bits(wantMean) {
			t.Fatalf("trial %d: merged Mean() = %x, want bit-identical %x (ascending fold)",
				trial, math.Float64bits(got), math.Float64bits(wantMean))
		}
		if h.Total() != src.Total() {
			t.Fatalf("trial %d: merged Total() = %d, want %d", trial, h.Total(), src.Total())
		}
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); !almostEqual(g, 4) {
		t.Errorf("GeoMean(2,8) = %v, want 4", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", g)
	}
	if g := GeoMean([]float64{5}); !almostEqual(g, 5) {
		t.Errorf("GeoMean(5) = %v, want 5", g)
	}
	if g := GeoMean([]float64{1, 0, 4}); g != 0 {
		t.Errorf("GeoMean with zero = %v, want 0", g)
	}
	if g := GeoMean([]float64{1, -1}); !math.IsNaN(g) {
		t.Errorf("GeoMean with negative = %v, want NaN", g)
	}
}

func TestGeoMeanBounds(t *testing.T) {
	// GeoMean lies between min and max for positive inputs.
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := GeoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); !almostEqual(m, 2) {
		t.Errorf("Mean = %v, want 2", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for i := 0; i < 3; i++ {
		h.Add(0)
	}
	h.Add(2)
	if h.Total() != 4 {
		t.Errorf("Total = %d, want 4", h.Total())
	}
	if h.Count(0) != 3 || h.Count(2) != 1 || h.Count(1) != 0 {
		t.Errorf("counts wrong: %v %v %v", h.Count(0), h.Count(1), h.Count(2))
	}
	if p := h.Probability(0); !almostEqual(p, 0.75) {
		t.Errorf("P(0) = %v, want 0.75", p)
	}
	if m := h.Mean(); !almostEqual(m, 0.5) {
		t.Errorf("Mean = %v, want 0.5", m)
	}
	vs := h.Values()
	if len(vs) != 2 || vs[0] != 0 || vs[1] != 2 {
		t.Errorf("Values = %v", vs)
	}
}

func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	if h.Total() != 0 || h.Mean() != 0 || len(h.Values()) != 0 || h.Probability(1) != 0 {
		t.Error("zero-value histogram should report zeros")
	}
	if s := h.String(); s != "" {
		t.Errorf("empty histogram String = %q", s)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Add(1)
	a.Add(1)
	b.Add(2)
	a.Merge(&b)
	if a.Total() != 3 || a.Count(1) != 2 || a.Count(2) != 1 {
		t.Errorf("merge wrong: total=%d", a.Total())
	}
	if !almostEqual(a.Mean(), 4.0/3.0) {
		t.Errorf("merged mean = %v", a.Mean())
	}
}

// TestHistogramSmallAddDoesNotAllocate: reinsertion counts (at most
// cuckoo.MaxKicks) are counted inline, so recording them allocates
// nothing, not even on a histogram's first Add.
func TestHistogramSmallAddDoesNotAllocate(t *testing.T) {
	allocs := testing.AllocsPerRun(50, func() {
		var h Histogram
		for v := 0; v < smallValues; v++ {
			h.Add(v)
		}
		if h.Total() != smallValues {
			t.Fatalf("Total = %d, want %d", h.Total(), smallValues)
		}
	})
	if allocs != 0 {
		t.Errorf("Add of 0 ≤ v < %d allocated %.1f times per run, want 0", smallValues, allocs)
	}
}

// TestHistogramInlineAndMapValuesRoundTrip: values on both sides of the
// inline range survive State→Restore and Merge exactly, State lists them
// in ascending order, and a state in the map form of older checkpoints
// restores to the same histogram.
func TestHistogramInlineAndMapValuesRoundTrip(t *testing.T) {
	var h Histogram
	for i, v := range []int{-1, 0, 63, 64, 1 << 60} {
		for k := 0; k <= i; k++ {
			h.Add(v)
		}
	}
	st := h.State()
	want := []Bin{{-1, 1}, {0, 2}, {63, 3}, {64, 4}, {1 << 60, 5}}
	if !reflect.DeepEqual(st.Bins, want) || st.Counts != nil || st.Total != 15 {
		t.Fatalf("State = %+v, want bins %v over 15", st, want)
	}
	if got := h.Values(); !reflect.DeepEqual(got, []int{-1, 0, 63, 64, 1 << 60}) {
		t.Errorf("Values = %v", got)
	}
	var restored, merged, legacy Histogram
	restored.Restore(st)
	merged.Merge(&h)
	legacy.Restore(HistogramState{
		Counts: map[int]uint64{-1: 1, 0: 2, 63: 3, 64: 4, 1 << 60: 5},
		Total:  st.Total,
	})
	for name, g := range map[string]*Histogram{"restored": &restored, "merged": &merged, "legacy": &legacy} {
		if got := g.State(); !reflect.DeepEqual(got, st) {
			t.Errorf("%s State = %+v, want %+v", name, got, st)
		}
		if g.Mean() != h.Mean() {
			t.Errorf("%s Mean = %v, want %v", name, g.Mean(), h.Mean())
		}
		vs := g.Values()
		if vs[len(vs)-1] != 1<<60 || g.Count(-1) != 1 || g.Count(63) != 3 {
			t.Errorf("%s: largest %d, Count(-1) %d, Count(63) %d", name, vs[len(vs)-1], g.Count(-1), g.Count(63))
		}
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{512, "512B"},
		{8 << 10, "8KB"},
		{1 << 20, "1MB"},
		{64 << 20, "64MB"},
		{3 << 30, "3GB"},
		{6 << 40, "6TB"},
		{1536, "1.5KB"},
		{(1 << 20) + (1 << 19), "1.5MB"},
	}
	for _, c := range cases {
		if got := HumanBytes(c.n); got != c.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}
