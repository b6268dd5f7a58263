package osmodel

import (
	"math/rand"

	"repro/internal/snapshot"
	"repro/internal/tlb"
)

// Section V-C models the per-process state the OS must swap on a context
// switch. For ME-HPT that includes the process's L2P table: the MMU holds
// only the running process's table, and the OS saves/restores the valid
// entries — which are clustered at the extremes of each subtable, so only
// the used ones move.

// L2PCarrier is implemented by page tables with MMU-resident L2P state
// (mehpt.PageTable); other organizations carry none.
type L2PCarrier interface {
	// L2PSaveRestoreEntries returns the number of valid L2P entries a
	// context switch must save and restore.
	L2PSaveRestoreEntries() int
}

// SwitchCosts parameterizes the context-switch cost model.
type SwitchCosts struct {
	// Base covers the organization-independent switch work: register state,
	// kernel scheduling, CR3 write (a few microseconds in real systems; we
	// charge only the MMU-relevant fixed part).
	Base uint64
	// PerL2PEntry is the cost of saving plus restoring one 33-bit L2P
	// entry.
	PerL2PEntry uint64
	// FlushTLBs: without ASIDs the TLBs are flushed on switch, refilled by
	// subsequent walks.
	FlushTLBs bool
}

// DefaultSwitchCosts returns a cost model consistent with Section V-C's
// "modest overhead" claim: 53 average entries × 4 cycles ≈ 200 cycles on
// top of the base switch cost.
func DefaultSwitchCosts() SwitchCosts {
	return SwitchCosts{Base: 1000, PerL2PEntry: 4, FlushTLBs: true}
}

// Proc is one schedulable process: its page table and, optionally, the TLB
// hierarchy state that would be flushed on switch.
type Proc struct {
	ID   int
	PT   PageTable
	TLBs *tlb.Hierarchy // may be nil (population-only experiments)
}

// SchedulerStats aggregates switch activity.
type SchedulerStats struct {
	Switches       uint64
	SwitchCycles   uint64
	L2PEntriesSum  uint64 // total entries saved+restored, for averaging
	L2PCyclesTotal uint64
}

// MultiCore schedules P processes over C simulated cores, charging the
// ME-HPT L2P save/restore costs the paper analyzes in Section V-C on every
// context switch. With one core it is a single hart switching between
// processes. Two rules keep its schedule deterministic at any core count:
//
//   - Placement: process pid is pinned to core pid mod C. Pinning is a pure
//     function of identity, so where a process runs never depends on what
//     ran before it.
//   - Order: each round visits the processes in a seeded-permutation order
//     drawn from the scheduler's private generator. The permutation is a
//     function of (seed, round number) over the full process set — never of
//     the core count or of which processes are still runnable — so the
//     canonical execution order is bit-identical at any C.
//
// The scheduler is accounting-only: it decides order and charges switch
// costs, while the caller owns the per-core MMU shards and performs the
// Bind/flush the switch implies. Switch cycle counters are core-view
// metrics (a core whose incumbent returns pays nothing, which legitimately
// happens more often at higher C); they are reported but excluded from the
// canonical fingerprint.
type MultiCore struct {
	//mehpt:transient -- construction parameter re-supplied to RestoreMultiCore, not state
	costs SwitchCosts
	//mehpt:transient -- construction parameter re-supplied to RestoreMultiCore, not state
	cores int
	//mehpt:transient -- the processes are restored separately and re-attached by RestoreMultiCore
	procs []*Proc
	// incumbent[c] is the pid resident on core c, or -1 when the core has
	// run nothing yet.
	incumbent []int
	src       *snapshot.Source // counting source under rng, for checkpoints
	//mehpt:transient -- rebuilt as rand.New over src, whose stream position crosses the checkpoint as MultiCoreState.RNG
	rng    *rand.Rand
	perm   []int // scratch for the per-round permutation
	rounds uint64

	stats SchedulerStats
}

// NewMultiCore creates a multi-core scheduler over the given processes.
// cores is clamped to at least 1; seed feeds the scheduler's private
// permutation generator (derive it from the machine seed via
// runner.DeriveSubSeed so the schedule is part of the seed tree).
func NewMultiCore(costs SwitchCosts, cores int, seed int64, procs ...*Proc) *MultiCore {
	if len(procs) == 0 {
		panic("osmodel: multi-core scheduler needs at least one process")
	}
	if cores < 1 {
		cores = 1
	}
	src := snapshot.NewSource(seed)
	m := &MultiCore{
		costs:     costs,
		cores:     cores,
		procs:     procs,
		incumbent: make([]int, cores),
		src:       src,
		rng:       rand.New(src),
		perm:      make([]int, len(procs)),
	}
	for c := range m.incumbent {
		m.incumbent[c] = -1
	}
	for i := range m.perm {
		m.perm[i] = i
	}
	return m
}

// Cores returns the simulated core count.
func (m *MultiCore) Cores() int { return m.cores }

// CoreOf returns the core process pid is pinned to.
func (m *MultiCore) CoreOf(pid int) int { return pid % m.cores }

// Incumbent returns the pid resident on core c, or -1 if none yet.
func (m *MultiCore) Incumbent(c int) int { return m.incumbent[c] }

// Rounds returns how many rounds have been drawn.
func (m *MultiCore) Rounds() uint64 { return m.rounds }

// Stats returns switch counters (core-view metrics).
func (m *MultiCore) Stats() SchedulerStats { return m.stats }

// NextRound draws the canonical visit order for the next round: a seeded
// Fisher-Yates permutation over the full process set. The returned slice is
// scratch reused by the next call. The generator is consumed identically
// every round regardless of which processes remain runnable, so a tenant
// failing mid-run perturbs nothing but its own absence.
func (m *MultiCore) NextRound() []int {
	m.rounds++
	for i := len(m.perm) - 1; i > 0; i-- {
		j := m.rng.Intn(i + 1)
		m.perm[i], m.perm[j] = m.perm[j], m.perm[i]
	}
	return m.perm
}

// Visit makes process pid current on its core, charging a context switch
// when the core's incumbent differs. It returns the core, the switch cost
// in cycles (0 when the incumbent returns), and whether a switch happened.
// The caller rebinds the core's MMU shard on switched == true; flushing
// per-quantum translation state unconditionally is the caller's business
// (see the canonical-cold-start rule in DESIGN.md).
func (m *MultiCore) Visit(pid int) (core int, cycles uint64, switched bool) {
	core = m.CoreOf(pid)
	prev := m.incumbent[core]
	if prev == pid {
		return core, 0, false
	}
	cycles = m.costs.Base
	entries := 0
	if prev >= 0 {
		if c, ok := m.procs[prev].PT.(L2PCarrier); ok {
			entries += c.L2PSaveRestoreEntries()
		}
		if m.costs.FlushTLBs && m.procs[prev].TLBs != nil {
			m.procs[prev].TLBs.Flush()
		}
	}
	if c, ok := m.procs[pid].PT.(L2PCarrier); ok {
		entries += c.L2PSaveRestoreEntries()
	}
	l2pCycles := uint64(entries) * m.costs.PerL2PEntry
	cycles += l2pCycles
	m.incumbent[core] = pid
	m.stats.Switches++
	m.stats.SwitchCycles += cycles
	m.stats.L2PEntriesSum += uint64(entries)
	m.stats.L2PCyclesTotal += l2pCycles
	return core, cycles, true
}
