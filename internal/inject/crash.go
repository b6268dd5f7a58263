package inject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrKilled marks a simulated crash: a Crasher reached its armed kill
// point. The run is abandoned exactly where a real kill -9 would land, and
// recovery must come from the last durable checkpoint.
var ErrKilled = errors.New("inject: killed at crash point")

// Crash points registered by the multi-tenant machine, in the order they
// fire. Each names a boundary where a real crash would be distinguishable:
// between rounds, between quanta, around a shared-page remap, and on either
// side of a checkpoint write.
const (
	KillRoundBegin       = "round.begin"
	KillQuantumEnd       = "quantum.end"
	KillRemapBefore      = "remap.before"
	KillRemapAfter       = "remap.after"
	KillCheckpointBefore = "checkpoint.before"
	KillCheckpointAfter  = "checkpoint.after"
)

// KillPoints lists every registered crash point.
func KillPoints() []string {
	return []string{
		KillRoundBegin, KillQuantumEnd,
		KillRemapBefore, KillRemapAfter,
		KillCheckpointBefore, KillCheckpointAfter,
	}
}

// Crasher is a deterministic kill switch: it counts visits to each crash
// point and returns ErrKilled on the Nth visit to its armed point. The
// decision depends only on the visit stream, so the same plan over the same
// execution kills at the same instruction every time. A nil Crasher is
// inert.
type Crasher struct {
	point string
	n     uint64
	hits  map[string]uint64
}

// NewCrasher arms a crasher at the nth visit (1-based) to point.
func NewCrasher(point string, n uint64) *Crasher {
	return &Crasher{point: point, n: n, hits: make(map[string]uint64)}
}

// ParseKill builds a Crasher from a plan string "point:N" — kill on the Nth
// visit to the named crash point, e.g. "round.begin:3" or "remap.after:1".
func ParseKill(plan string) (*Crasher, error) {
	point, nstr, ok := strings.Cut(plan, ":")
	if !ok {
		return nil, fmt.Errorf("inject: kill plan %q: want point:N", plan)
	}
	valid := false
	for _, p := range KillPoints() {
		if p == point {
			valid = true
			break
		}
	}
	if !valid {
		return nil, fmt.Errorf("inject: kill plan %q: unknown point %q (want one of %s)",
			plan, point, strings.Join(KillPoints(), ", "))
	}
	n, err := strconv.ParseUint(nstr, 10, 64)
	if err != nil || n == 0 {
		return nil, fmt.Errorf("inject: kill plan %q: want a positive visit count", plan)
	}
	return NewCrasher(point, n), nil
}

// At registers one visit to point and returns ErrKilled (wrapped with the
// point and visit count) when the armed trigger fires. Nil receivers are
// inert, so instrumented code calls At unconditionally.
func (c *Crasher) At(point string) error {
	if c == nil {
		return nil
	}
	c.hits[point]++
	if point == c.point && c.hits[point] == c.n {
		return fmt.Errorf("%w: %s visit %d", ErrKilled, point, c.n)
	}
	return nil
}
