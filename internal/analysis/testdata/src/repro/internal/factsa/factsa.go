// Package factsa is the caller side of the cross-package fact cache test.
package factsa

import "repro/internal/factsb"

func Grow(s []int) []int {
	return factsb.Grow(s)
}
