package main

import (
	"math/rand"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// seq returns 1..n in shuffled order.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func histOf(xs []float64) *histogram {
	var h histogram
	for _, x := range xs {
		h.add(int64(x))
	}
	return &h
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		rank int64 // expected nearest rank; 0 when not reportable
	}{
		{1000, 0.99, 990}, // ranks 991..1000 lie beyond: exactly ten
		{999, 0.99, 0},    // rank 990 leaves nine beyond
		{20, 0.50, 10},
		{19, 0.50, 0},
		{200, 0.95, 190},
		{199, 0.95, 0},
		{0, 0.50, 0},
	} {
		got, ok := histOf(seq(tc.n)).percentile(tc.q)
		want := float64(0)
		if tc.rank > 0 {
			want = float64(bucketHigh(bucketOf(tc.rank)))
		}
		if got != want || ok != (tc.rank > 0) {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, want, tc.rank > 0)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v++ {
		b := bucketOf(v)
		if b < prev || b > prev+1 {
			t.Fatalf("bucketOf(%d) = %d after %d: buckets must be contiguous", v, b, prev)
		}
		if hi := bucketHigh(b); hi < v {
			t.Fatalf("bucketHigh(%d) = %d below member %d", b, hi, v)
		}
		if b > 0 && bucketHigh(b-1) >= v {
			t.Fatalf("bucketHigh(%d) = %d overlaps bucket %d holding %d", b-1, bucketHigh(b-1), b, v)
		}
		prev = b
	}
}

func TestHistogramPercentile(t *testing.T) {
	xs := seq(5000)
	for i := range xs {
		xs[i] *= 100
	}
	h := histOf(xs)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := float64(nearestRank(5000, q)) * 100
		got, ok := h.percentile(q)
		if !ok {
			t.Fatalf("percentile(%v) not reportable", q)
		}
		// The bucket's upper edge is at most 1/32 above the exact sample.
		if got < exact || got > exact*(1+1.0/32) {
			t.Errorf("histogram p%v = %v, exact %v", q*100, got, exact)
		}
	}
}
