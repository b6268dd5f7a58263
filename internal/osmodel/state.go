package osmodel

import (
	"fmt"
	"math/rand"

	"repro/internal/snapshot"
)

// RestoreStats reinstates OS counters captured by Stats — the OS itself is
// rebuilt with New over the restored page table and allocator.
func (o *OS) RestoreStats(s Stats) { o.stats = s }

// MultiCoreState is the serializable form of a MultiCore scheduler. Perm is
// persistent scratch — the permutation is shuffled in place across rounds,
// so its current order is part of the deterministic schedule and must cross
// the checkpoint verbatim.
type MultiCoreState struct {
	Incumbent []int
	Perm      []int
	Rounds    uint64
	Stats     SchedulerStats
	RNG       snapshot.SourceState
}

// State returns a deep copy of the scheduler's position.
func (m *MultiCore) State() MultiCoreState {
	return MultiCoreState{
		Incumbent: append([]int(nil), m.incumbent...),
		Perm:      append([]int(nil), m.perm...),
		Rounds:    m.rounds,
		Stats:     m.stats,
		RNG:       m.src.State(),
	}
}

// RestoreMultiCore rebuilds a scheduler at the recorded position. costs,
// cores, and procs must match the captured run (they are construction
// parameters, not state); the permutation generator is replayed to its
// recorded draw count. It returns an error for state the scheduler would
// index the process list out of range with: one incumbent per core, each a
// pid or -1, and an order that is a permutation of the pids.
func RestoreMultiCore(costs SwitchCosts, cores int, st MultiCoreState, procs ...*Proc) (*MultiCore, error) {
	ok := len(st.Incumbent) == cores && len(st.Perm) == len(procs)
	for _, pid := range st.Incumbent {
		ok = ok && pid >= -1 && pid < len(procs)
	}
	seen := make([]bool, len(procs))
	for _, pid := range st.Perm {
		ok = ok && pid >= 0 && pid < len(procs) && !seen[pid]
		if ok {
			seen[pid] = true
		}
	}
	if !ok {
		return nil, fmt.Errorf("osmodel: incumbents %v and order %v do not fit %d cores and %d pids",
			st.Incumbent, st.Perm, cores, len(procs))
	}
	src := snapshot.RestoreSource(st.RNG)
	m := &MultiCore{
		costs:     costs,
		cores:     cores,
		procs:     procs,
		incumbent: append([]int(nil), st.Incumbent...),
		src:       src,
		rng:       rand.New(src),
		perm:      append([]int(nil), st.Perm...),
		rounds:    st.Rounds,
		stats:     st.Stats,
	}
	return m, nil
}
