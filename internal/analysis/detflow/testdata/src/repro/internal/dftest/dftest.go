// Package dftest is the detflow golden suite for the edges of the rules:
// collect-then-sort variants that are and are not the idiom, map ranges
// inside function literals, and the select and pointer → uintptr bans.
package dftest

import (
	"slices"
	"sort"
	"unsafe"
)

// sortedBySlices determinizes with slices.Sort: clean.
func sortedBySlices(m map[int]bool) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// sortedLater sorts in a nested block after the loop: clean.
func sortedLater(m map[int]bool, sorted bool) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	if sorted {
		sort.Ints(ks)
	}
	return ks
}

// sortedBefore sorts before the loop fills the slice.
func sortedBefore(m map[int]bool) []int {
	var ks []int
	sort.Ints(ks)
	for k := range m { // want `range over a map`
		ks = append(ks, k)
	}
	return ks
}

// sortsAnother sorts a different slice than the one collected.
func sortsAnother(m map[int]bool, other []int) []int {
	var ks []int
	for k := range m { // want `range over a map`
		ks = append(ks, k)
	}
	sort.Ints(other)
	return ks
}

// twoSlices collects into two slices: not the idiom even if both are
// sorted.
func twoSlices(m map[int]int) ([]int, []int) {
	var ks, vs []int
	for k, v := range m { // want `range over a map`
		ks = append(ks, k)
		vs = append(vs, v)
	}
	sort.Ints(ks)
	sort.Ints(vs)
	return ks, vs
}

// collectAndCount does more than append.
func collectAndCount(m map[int]bool) ([]int, int) {
	var ks []int
	n := 0
	for k := range m { // want `range over a map`
		ks = append(ks, k)
		n++
	}
	sort.Ints(ks)
	return ks, n
}

// inClosure ranges inside a function literal: the literal is its own
// function, and it sorts what it collects.
func inClosure(m map[int]bool) func() []int {
	return func() []int {
		var ks []int
		for k := range m {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		return ks
	}
}

// sortedInClosure sorts in a literal, which is another function.
func sortedInClosure(m map[int]bool) []int {
	var ks []int
	for k := range m { // want `range over a map`
		ks = append(ks, k)
	}
	func() { sort.Ints(ks) }()
	return ks
}

// namedMap ranges over a defined map type.
type counts map[string]int

func namedMap(c counts, emit func(string)) {
	for k := range c { // want `range over a map`
		emit(k)
	}
}

// rangeSlice ranges over a slice: clean.
func rangeSlice(s []int, emit func(int)) {
	for _, v := range s {
		emit(v)
	}
}

// race takes whichever channel is ready first.
func race(a, b chan int) int {
	select { // want `select with 2 communication clauses picks a ready case at random`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// poll is a single receive with a default: deterministic, clean.
func poll(a chan int) int {
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}

// sendOrReceive mixes a send and a receive: two communication clauses.
func sendOrReceive(in, out chan int, v int) {
	select { // want `select with 2 communication clauses`
	case out <- v:
	case <-in:
	default:
	}
}

// addrOf converts a pointer to an address.
func addrOf(p *int) uintptr {
	return uintptr(unsafe.Pointer(p)) // want `pointer-to-uintptr conversion`
}

// widen converts an integer to uintptr: clean.
func widen(v uint32) uintptr {
	return uintptr(v)
}

var (
	_ = sortedBySlices
	_ = sortedLater
	_ = sortedBefore
	_ = sortsAnother
	_ = twoSlices
	_ = collectAndCount
	_ = inClosure
	_ = sortedInClosure
	_ = namedMap
	_ = rangeSlice
	_ = race
	_ = poll
	_ = sendOrReceive
	_ = addrOf
	_ = widen
)
