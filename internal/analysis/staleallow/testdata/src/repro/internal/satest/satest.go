// Package satest is the staleallow golden suite: a consumed waiver that
// must stay silent, stale waivers at every scope, and the misspellings
// the audit exists to catch.
//
//mehpt:allow:package errwrap -- package-wide waiver nothing ever consumes // want `stale //mehpt:allow`
package satest

import (
	"fmt"
	"unsafe"
)

// usedWaiver's directive suppresses a real detflow finding, so the
// waiver is used and must not be flagged.
func usedWaiver(m map[int]int) {
	for k := range m { //mehpt:allow detflow -- demo stream, row order is irrelevant
		fmt.Println(k)
	}
}

// usedSelectWaiver waives a two-clause select: used.
func usedSelectWaiver(a, b chan int) int {
	//mehpt:allow detflow -- either value is the same token
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// usedAddrWaiver waives a pointer-to-uintptr conversion: used.
func usedAddrWaiver(p *int) uintptr {
	return uintptr(unsafe.Pointer(p)) //mehpt:allow detflow -- identity key, never reaches output
}

// staleSelect waives a select with one communication clause, which is
// no finding.
func staleSelect(a chan int) int {
	//mehpt:allow detflow -- used to race two channels // want `stale //mehpt:allow`
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}

// staleAddr waives an integer-to-uintptr conversion, which is no
// finding.
func staleAddr(v uint32) uintptr {
	return uintptr(v) //mehpt:allow detflow -- used to take an address // want `stale //mehpt:allow`
}

// staleLine carries a waiver for a finding that no longer exists.
func staleLine() int {
	x := 1 //mehpt:allow detflow -- the map loop above used to live here // want `stale //mehpt:allow`
	return x
}

// typoRule waives an analyzer that does not exist.
func typoRule() int {
	return 2 //mehpt:allow detfloww -- misspelled rule name // want `unknown analyzer "detfloww"`
}

//mehpt:hotpth // want `unknown //mehpt: annotation "hotpth"`
func notHot() {}

//mehpt:transiet -- typo // want `unknown //mehpt: annotation "transiet"`
var spare int

var (
	_ = usedWaiver
	_ = usedSelectWaiver
	_ = usedAddrWaiver
	_ = staleSelect
	_ = staleAddr
	_ = staleLine
	_ = typoRule
	_ = notHot
	_ = spare
)
