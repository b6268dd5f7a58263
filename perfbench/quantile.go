package main

import (
	"math"
	"math/bits"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer samples is noise, so it is not reported.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the 1-based rank of the q-quantile among n samples:
// ceil(q·n), clamped to [1, n].
func nearestRank(n uint64, q float64) uint64 {
	r := uint64(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// histogram records non-negative durations (ns) in log-linear buckets: exact
// below 2^subBits, then 2^subBits buckets per power of two, so a reported
// percentile is within 1/2^subBits (about 3%) of the true sample. It lets
// the traced run keep a tail figure for every call of a layer without
// storing every sample.
type histogram struct {
	counts []uint64
	n      uint64
}

const subBits = 5

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits - 1 // v >> e has subBits+1 bits
	return (e+1)<<subBits + int(uint64(v)>>e) - 1<<subBits
}

// bucketHigh is the largest value bucket b holds.
func bucketHigh(b int) int64 {
	if b < 1<<subBits {
		return int64(b)
	}
	e := b>>subBits - 1
	mant := int64(b&(1<<subBits-1)) + 1<<subBits
	return (mant+1)<<e - 1
}

func (h *histogram) add(v int64) {
	b := bucketOf(v)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

// percentile returns the nearest-rank q-quantile (0 < q < 1), as the upper
// edge of the bucket holding that rank. ok is false, and the value 0, when
// fewer than minBeyond samples rank above it.
func (h *histogram) percentile(q float64) (float64, bool) {
	rank := nearestRank(h.n, q)
	if h.n == 0 || h.n-rank < minBeyond {
		return 0, false
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			return float64(bucketHigh(b)), true
		}
	}
	return 0, false // unreachable: the counts sum to n
}
