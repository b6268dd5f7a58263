// Package cmdx is an I/O-shell golden package: it sits outside
// repro/internal/, so detflow's ban mode leaves its wall-clock and
// global-rand uses alone (CLIs may time themselves and shuffle help text
// all they want), and no value reaches a sink.
package cmdx

import (
	"math/rand"
	"time"
)

// Uptime may read the wall clock: not a deterministic package.
func Uptime(start time.Time) time.Duration {
	return time.Since(start)
}

// Jitter may use the global generator: not a deterministic package.
func Jitter() int {
	return rand.Intn(100)
}
