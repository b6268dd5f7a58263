// Package factsb is the callee side of the cross-package fact cache test:
// its facts are computed when package factsa is loaded.
package factsb

func Grow(s []int) []int {
	return append(s, 1)
}
