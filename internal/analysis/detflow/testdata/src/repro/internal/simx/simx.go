// Package simx is a detflow ban-mode golden package: its import path
// places it under repro/internal/, so the determinism contract applies.
package simx

import (
	crand "crypto/rand" // want `crypto/rand is nondeterministic`
	"math/rand"
	"time"
	"unsafe"
)

// Draw uses the global generator: flagged.
func Draw() int {
	return rand.Intn(10) // want `global rand\.Intn draws from math/rand's shared generator`
}

// Shuffled uses more global-state helpers: flagged.
func Shuffled() []int {
	rand.Seed(42)     // want `global rand\.Seed`
	p := rand.Perm(8) // want `global rand\.Perm`
	return p
}

// Seeded derives every draw from an explicitly seeded generator: clean.
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// Clock reads wall time on a result path: flagged.
func Clock() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock`
}

// Elapsed measures a duration: flagged twice (Now and Since).
func Elapsed() time.Duration {
	start := time.Now()      // want `time\.Now reads the wall clock`
	return time.Since(start) // want `time\.Since reads the wall clock`
}

// Allowed carries the escape-hatch directive: suppressed.
func Allowed() time.Time {
	return time.Now() //mehpt:allow detflow -- progress timing for humans, never a result path
}

// AllowedAbove is suppressed by a directive on the preceding line.
func AllowedAbove() time.Time {
	//mehpt:allow detflow -- wall-clock needed for the demo banner
	return time.Now()
}

// Fill uses crypto/rand (the import is what gets flagged).
func Fill(b []byte) {
	crand.Read(b)
}

// Malformed directives are themselves findings and suppress nothing.
func Malformed() time.Time {
	//mehpt:allow detflow missing reason separator // want `malformed //mehpt:allow directive`
	return time.Now() // want `time\.Now reads the wall clock`
}

// FirstReady races two channels: flagged.
func FirstReady(a, b <-chan int) int {
	select { // want `select with 2 communication clauses`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Addr reads an address: flagged.
func Addr(p *int) uint64 {
	return uint64(uintptr(unsafe.Pointer(p))) // want `pointer-to-uintptr conversion`
}

// Keys ranges over a map without sorting: flagged here as in every
// package.
func Keys(m map[int]int) []int {
	var ks []int
	for k := range m { // want `range over a map`
		ks = append(ks, k)
	}
	return ks
}
