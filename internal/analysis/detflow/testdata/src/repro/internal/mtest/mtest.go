// Package mtest exercises detflow's map-range rule: every range over a
// map is a finding unless it collects into a slice that the function
// sorts after the loop, or it carries a waiver.
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

// BadCollect returns the keys in map order: collected, never sorted.
func BadCollect(m map[string]int) []string {
	var out []string
	for k := range m { // want `range over a map visits keys in random order`
		out = append(out, k)
	}
	return out
}

// BadWrite serializes the map in iteration order.
func BadWrite(w io.Writer, m map[string]int) {
	for k, v := range m { // want `range over a map`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// BadSeed folds map keys into a seed in iteration order.
func BadSeed(m map[uint64]uint64) uint64 {
	var s uint64
	for k := range m { // want `range over a map`
		s = DeriveSeed(s, k)
	}
	return s
}

// DeriveSeed is a stand-in for runner.DeriveSeed.
func DeriveSeed(s, k uint64) uint64 { return s*0x9e3779b9 + k }

// BadCallback hands each value to a callback in map order; the callee
// may emit, so the order is observable.
func BadCallback(m map[string][]int, f func([]int)) {
	for _, vs := range m { // want `range over a map`
		var doubled []int
		for _, v := range vs {
			doubled = append(doubled, 2*v)
		}
		f(doubled)
	}
}

// Waived documents an order-irrelevant dump with the escape hatch.
func Waived(w io.Writer, m map[string]int) {
	for k := range m { //mehpt:allow detflow -- debug dump, order deliberately irrelevant
		fmt.Fprintln(w, k)
	}
}

// GoodReduce computes an order-independent integer sum under a waiver.
func GoodReduce(m map[string]int) int {
	total := 0
	//mehpt:allow detflow -- integer sum, the same in any order
	for _, v := range m {
		total += v
	}
	return total
}
