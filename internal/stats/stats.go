// Package stats provides the small statistical helpers shared by the
// experiment drivers: histograms, geometric means, and running counters.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// GeoMean returns the geometric mean of xs. It returns 0 for an empty slice
// and NaN if any value is negative.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x < 0 {
			return math.NaN()
		}
		if x == 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// smallValues is how many of the lowest non-negative values a Histogram
// counts in an inline array instead of its map. Reinsertion counts are
// bounded by cuckoo.MaxKicks (32), so the per-insert Add never touches
// the map.
const smallValues = 64

// Histogram counts integer-valued observations (e.g. the number of cuckoo
// re-insertions per insert, Figure 16). The zero value is ready to use.
type Histogram struct {
	small  [smallValues]uint64 // counts of 0 <= v < smallValues
	counts map[int]uint64      // counts of every other value
	total  uint64
}

// Add records one observation of value v.
func (h *Histogram) Add(v int) { h.add(v, 1) }

// add records c observations of value v.
func (h *Histogram) add(v int, c uint64) {
	if uint(v) < smallValues {
		h.small[v] += c
	} else {
		if h.counts == nil {
			h.counts = make(map[int]uint64)
		}
		h.counts[v] += c
	}
	h.total += c
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the number of observations with value v.
func (h *Histogram) Count(v int) uint64 {
	if uint(v) < smallValues {
		return h.small[v]
	}
	return h.counts[v]
}

// Probability returns the empirical probability of value v.
func (h *Histogram) Probability(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// Mean returns the mean observed value, summed from the bins in ascending
// value order. Where every partial sum is an integer below 2^53, as for
// reinsertion counts, the sum is exact and so equals an in-order running
// sum of the observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for _, v := range h.Values() {
		sum += float64(v) * float64(h.Count(v))
	}
	return sum / float64(h.total)
}

// Values returns the observed values in ascending order.
func (h *Histogram) Values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	for v, c := range h.small {
		if c > 0 {
			vs = append(vs, v)
		}
	}
	sort.Ints(vs)
	return vs
}

// Merge adds all observations from other into h, folding values in
// ascending order so the fold never depends on map iteration order.
func (h *Histogram) Merge(other *Histogram) {
	for _, v := range other.Values() {
		h.add(v, other.Count(v))
	}
}

// String renders the histogram as "v:p v:p ..." with probabilities.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, v := range h.Values() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.3f", v, h.Probability(v))
	}
	return b.String()
}

// Shootdowns aggregates TLB-shootdown and IPI activity for the multi-tenant
// simulation. The struct is split along the canonical/core-view boundary
// DESIGN.md's multi-tenant determinism contract draws:
//
//   - Events and SharersNotified are canonical, address-space-granular
//     accounting (a remap of a shared page is one event notifying every
//     other live sharer process), independent of how processes are packed
//     onto cores. They are part of the run fingerprint.
//   - IPIsDelivered and IPICycles are core-view: an IPI goes to each *core*
//     with a resident address space, so packing more processes per core
//     delivers fewer, costlier-per-tenant interrupts. They are reported but
//     excluded from the fingerprint, since they legitimately vary with the
//     simulated core count.
type Shootdowns struct {
	Events          uint64 `json:"events"`
	SharersNotified uint64 `json:"sharers_notified"`
	IPIsDelivered   uint64 `json:"ipis_delivered"`
	IPICycles       uint64 `json:"ipi_cycles"`
}

// Ftoa formats a fraction with three decimals (figure rendering helper).
func Ftoa(f float64) string { return fmt.Sprintf("%.3f", f) }

// HumanBytes formats a byte count with a binary-unit suffix, the way the
// paper's tables report sizes ("8KB", "1MB", "64MB").
func HumanBytes(n uint64) string {
	units := []struct {
		shift uint
		name  string
	}{{40, "TB"}, {30, "GB"}, {20, "MB"}, {10, "KB"}}
	for _, u := range units {
		unit := uint64(1) << u.shift
		if n < unit {
			continue
		}
		if n%unit == 0 {
			return fmt.Sprintf("%d%s", n>>u.shift, u.name)
		}
		return fmt.Sprintf("%.1f%s", float64(n)/float64(unit), u.name)
	}
	return fmt.Sprintf("%dB", n)
}
