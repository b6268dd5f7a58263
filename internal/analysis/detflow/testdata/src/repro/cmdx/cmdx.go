// Package cmdx is an I/O-shell golden package: it sits outside
// repro/internal/, so detflow's ban mode leaves its wall-clock,
// global-rand, select and address uses alone (CLIs may time themselves
// and shuffle help text all they want). The map-range rule holds here
// too.
package cmdx

import (
	"math/rand"
	"sort"
	"time"
	"unsafe"
)

// Uptime may read the wall clock: not a deterministic package.
func Uptime(start time.Time) time.Duration {
	return time.Since(start)
}

// Jitter may use the global generator: not a deterministic package.
func Jitter() int {
	return rand.Intn(100)
}

// Wait may race a timeout against a result: not a deterministic package.
func Wait(done <-chan int, timeout <-chan time.Time) int {
	select {
	case v := <-done:
		return v
	case <-timeout:
		return -1
	}
}

// Addr may print an address: not a deterministic package.
func Addr(p *int) uintptr {
	return uintptr(unsafe.Pointer(p))
}

// Flags lists flag names in sorted order: clean.
func Flags(m map[string]string) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Dump prints flags in map order: the map-range rule holds in every
// package.
func Dump(m map[string]string, emit func(string)) {
	for n := range m { // want `range over a map`
		emit(n)
	}
}
