// Package mtest exercises detflow's order sinks: map ranges whose
// iteration order can leak into results.
package mtest

import (
	"fmt"
	"io"
	"sort"
)

// GoodSorted collects keys and sorts them after the loop: the sanctioned
// idiom, clean.
func GoodSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GoodSortSlice determinizes with sort.Slice: clean.
func GoodSortSlice(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// BadCollect returns the keys in map order. The finding is where the
// slice leaves the function.
func BadCollect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out // want `map iteration order.*unsorted slice returned by mtest\.BadCollect`
}

// BadWrite serializes the map in iteration order.
func BadWrite(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `map iteration order.*output \(Fprintf\)`
	}
}

// BadSeed folds map keys into a seed in iteration order.
func BadSeed(m map[uint64]uint64) uint64 {
	var s uint64
	for k := range m {
		s = DeriveSeed(s, k) // want `map iteration order.*seed/hash derivation \(DeriveSeed\)`
	}
	return s
}

// DeriveSeed is a stand-in for runner.DeriveSeed.
func DeriveSeed(s, k uint64) uint64 { return s*0x9e3779b9 + k }

// Waived documents an order-irrelevant dump with the escape hatch.
func Waived(w io.Writer, m map[string]int) {
	for k := range m {
		fmt.Fprintln(w, k) //mehpt:allow detflow -- debug dump, order deliberately irrelevant
	}
}

// GoodReduce computes an order-independent reduction: clean.
func GoodReduce(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// GoodInner appends to a slice scoped inside the loop body: clean.
func GoodInner(m map[string][]int, f func([]int)) {
	for _, vs := range m {
		var doubled []int
		for _, v := range vs {
			doubled = append(doubled, 2*v)
		}
		f(doubled)
	}
}
