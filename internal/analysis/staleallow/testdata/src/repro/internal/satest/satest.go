// Package satest is the staleallow golden suite: a consumed waiver that
// must stay silent, stale waivers at every scope, and the misspellings
// the audit exists to catch.
//
//mehpt:allow:package errwrap -- package-wide waiver nothing ever consumes // want `stale //mehpt:allow`
package satest

import "fmt"

// usedWaiver's directive suppresses a real detflow finding, so the
// waiver is used and must not be flagged.
func usedWaiver(m map[int]int) {
	for k := range m {
		fmt.Println(k) //mehpt:allow detflow -- demo stream, row order is irrelevant
	}
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
	_ = staleLine
	_ = typoRule
	_ = notHot
	_ = spare
)
