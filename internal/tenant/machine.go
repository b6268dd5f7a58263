package tenant

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/cuckoo"
	"repro/internal/ecpt"
	"repro/internal/inject"
	"repro/internal/mehpt"
	"repro/internal/mmu"
	"repro/internal/osmodel"
	"repro/internal/phys"
	"repro/internal/radix"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ErrStuck reports a scheduling round that made no progress while tenants
// remain live — the simulator's stuck-core signal. It cannot fire on a
// healthy machine (every live tenant runs a quantum each round), so seeing
// it means the machine state is corrupt, e.g. a live count that drifted
// from the per-tenant budgets after a bad restore.
var ErrStuck = errors.New("tenant: scheduling round made no progress with live tenants")

// ErrMismatch reports a snapshot whose identity (organization, process or
// core count, seed) does not match the configuration it is being restored
// under. Resuming under different parameters would silently change the
// canonical execution, so it is refused.
var ErrMismatch = errors.New("tenant: snapshot does not match configuration")

// Machine is one multi-tenant simulation, stepped a scheduling round at a
// time. Run drives it to completion in one call; checkpoint/chaos harnesses
// interleave StepRound with Checkpoint and resume a killed machine from its
// last snapshot with LoadMachine, landing bit-identically on the same
// fingerprint.
type Machine struct {
	cfg      Config // post-withDefaults
	pool     *phys.Striped
	procs    []*process
	shards   []*shard
	sched    *osmodel.MultiCore
	shared   *sharedRegion
	injector *inject.Injector
	sd       stats.Shootdowns
	live     int
	//mehpt:transient -- chaos-harness kill switch, armed per run via SetCrasher; a recovered machine starts disarmed by design
	crasher *inject.Crasher
}

// NewMachine constructs a machine at round zero.
func NewMachine(cfg Config) (*Machine, error) {
	cfg = cfg.withDefaults()

	pool := phys.NewStriped(cfg.MemBytes, cfg.Stripes, cfg.FMFI)

	specs := workload.Specs(cfg.Scale)
	procs := make([]*process, cfg.Processes)
	schedProcs := make([]*osmodel.Proc, cfg.Processes)
	for pid := range procs {
		p, err := newProcess(cfg, pid, specs[pid%len(specs)], pool)
		if err != nil {
			return nil, err
		}
		procs[pid] = p
		schedProcs[pid] = &osmodel.Proc{ID: pid, PT: p.table}
	}

	shared, err := newShared(cfg, pool)
	if err != nil {
		return nil, err
	}

	m := &Machine{
		cfg:    cfg,
		pool:   pool,
		procs:  procs,
		shared: shared,
		live:   cfg.Processes,
	}

	// Fault injection arms only after boot: construction-time allocations
	// (initial ways, the shared premap) are machine setup, not tenant
	// activity, and injecting there would fail the whole machine rather
	// than exercise tenant isolation.
	if err := m.attachInjector(); err != nil {
		return nil, err
	}

	m.shards = newShards(cfg)
	m.sched = osmodel.NewMultiCore(osmodel.DefaultSwitchCosts(), cfg.Cores,
		runner.DeriveSubSeed(cfg.Seed, "sched", 0), schedProcs...)
	return m, nil
}

func newShards(cfg Config) []*shard {
	shards := make([]*shard, cfg.Cores)
	for c := range shards {
		shards[c] = newShard(cfg.Org)
	}
	return shards
}

func (m *Machine) attachInjector() error {
	if m.cfg.Inject == "" {
		return nil
	}
	policy, err := inject.Parse(m.cfg.Inject, runner.DeriveSubSeed(m.cfg.Seed, "inject", 0))
	if err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	m.injector = inject.AttachStriped(m.pool, policy)
	return nil
}

// Config returns the machine's configuration with defaults applied.
func (m *Machine) Config() Config { return m.cfg }

// Done reports whether every tenant has exhausted its budget (or failed).
func (m *Machine) Done() bool { return m.live == 0 }

// Live returns the number of tenants still running.
func (m *Machine) Live() int { return m.live }

// Rounds returns the scheduling rounds executed so far.
func (m *Machine) Rounds() uint64 { return m.sched.Rounds() }

// SetCrasher arms a deterministic kill harness: registered crash points
// call Crasher.At, and the first ErrKilled aborts the machine exactly where
// a real crash would. A nil crasher disarms.
func (m *Machine) SetCrasher(c *inject.Crasher) { m.crasher = c }

// StepRound executes one scheduling round — a quantum for every live
// tenant in canonical order, then the end-of-round shared-page remaps. It
// returns inject.ErrKilled if an armed crash point fires mid-round (the
// machine must then be abandoned and recovered from its last checkpoint),
// or ErrStuck if a round with live tenants makes no progress.
func (m *Machine) StepRound() error {
	if m.live == 0 {
		// A finished machine has nothing to schedule; stepping it further
		// must not mutate state (the end-of-round remap would otherwise
		// still run and silently fork the canonical execution).
		return nil
	}
	if err := m.crasher.At(inject.KillRoundBegin); err != nil {
		return err
	}
	progressed := false
	for _, pid := range m.sched.NextRound() {
		p := m.procs[pid]
		if p.left == 0 {
			continue
		}
		coreIdx, _, _ := m.sched.Visit(pid)
		sh := m.shards[coreIdx]
		// Canonical cold start: rebind and flush unconditionally, so
		// quantum state never depends on what this core ran before.
		sh.bind(p)
		runQuantum(m.cfg, p, sh, m.shared)
		progressed = true
		if p.left == 0 {
			m.live--
		}
		if err := m.crasher.At(inject.KillQuantumEnd); err != nil {
			return err
		}
	}
	if m.live > 0 && !progressed {
		return fmt.Errorf("%w: %d live after round %d", ErrStuck, m.live, m.sched.Rounds())
	}
	if err := m.crasher.At(inject.KillRemapBefore); err != nil {
		return err
	}
	remapRound(m.cfg, m.shared, m.procs, m.shards, m.sched, &m.sd)
	return m.crasher.At(inject.KillRemapAfter)
}

// Collect assembles the Result and computes its fingerprint.
func (m *Machine) Collect() *Result {
	return collect(m.cfg, m.procs, m.shards, m.shared, m.pool, m.sched, m.sd)
}

// ProcState is one tenant's checkpointed state.
type ProcState struct {
	Res  ProcResult
	Left uint64
	// Exactly one of Trace (generated stream position) and Replay (recorded
	// stream cursor) is meaningful, matching Config.Replay at capture time.
	Trace   workload.TraceState
	Replay  uint64
	Overlay snapshot.SourceState
	Table   snapshot.SourceState // table-config generator; zero for radix
	Cache   cache.HierarchyState
	OS      osmodel.Stats
	MEHPT   *mehpt.PageTableState
	ECPT    *ecpt.PageTableState
	Radix   *radix.State
}

// MachineState is the full checkpointed state of a Machine at a round
// boundary. Shard translation caches (TLBs, CWCs, PWCs) are deliberately
// absent: canonical cold start flushes them at every quantum's bind, so a
// round boundary carries only their counters.
type MachineState struct {
	Org       string
	Processes int
	Seed      int64

	Pool  phys.StripedState
	Procs []ProcState
	Sched osmodel.MultiCoreState

	SharedTable    cuckoo.ConcurrentTableState
	SharedTableRNG snapshot.SourceState
	SharedRemapRNG snapshot.SourceState

	ShardStats []mmu.Stats
	SD         stats.Shootdowns
	Live       int
	Injector   *inject.InjectorState
}

// State captures the machine. Call it only at a round boundary (between
// StepRound calls): mid-round state includes shard-resident translation
// context the snapshot deliberately omits.
func (m *Machine) State() *MachineState {
	st := &MachineState{
		Org:            m.cfg.Org.String(),
		Processes:      m.cfg.Processes,
		Seed:           m.cfg.Seed,
		Pool:           m.pool.State(),
		Procs:          make([]ProcState, len(m.procs)),
		Sched:          m.sched.State(),
		SharedTable:    m.shared.table.State(),
		SharedTableRNG: m.shared.tableSrc.State(),
		SharedRemapRNG: m.shared.remapSrc.State(),
		ShardStats:     make([]mmu.Stats, len(m.shards)),
		SD:             m.sd,
		Live:           m.live,
	}
	for i, p := range m.procs {
		ps := ProcState{
			Res:     p.res,
			Left:    p.left,
			Overlay: p.overlaySrc.State(),
			Cache:   p.cache.State(),
			OS:      p.os.Stats(),
		}
		if p.trace != nil {
			ps.Trace = p.trace.State()
		} else {
			ps.Replay = p.replayPos
		}
		// The typed failure chain is in-memory context for errors.Is
		// assertions; the string form survives the checkpoint.
		ps.Res.FailureErr = nil
		if p.tableSrc != nil {
			ps.Table = p.tableSrc.State()
		}
		switch t := p.table.(type) {
		case *radix.PageTable:
			rs := t.State()
			ps.Radix = &rs
		case *mehpt.PageTable:
			ts := t.State()
			ps.MEHPT = &ts
		case *ecpt.PageTable:
			ts := t.State()
			ps.ECPT = &ts
		}
		st.Procs[i] = ps
	}
	for i, sh := range m.shards {
		st.ShardStats[i] = sh.mmu.Stats()
	}
	if m.injector != nil {
		is := m.injector.State()
		st.Injector = &is
	}
	return st
}

// RestoreMachine rebuilds a machine from a captured state under the same
// configuration. Identity fields are cross-checked (ErrMismatch on any
// disagreement); construction-derived values (seed tree, hash seeds, stripe
// homes) are re-derived from cfg exactly as NewMachine derives them, and
// every generator is replayed to its recorded position, so stepping the
// restored machine reproduces the uninterrupted run bit for bit.
func RestoreMachine(cfg Config, st *MachineState) (*Machine, error) {
	cfg = cfg.withDefaults()
	if st.Org != cfg.Org.String() || st.Processes != cfg.Processes || st.Seed != cfg.Seed {
		return nil, fmt.Errorf("%w: snapshot is org=%s procs=%d seed=%d, config wants org=%s procs=%d seed=%d",
			ErrMismatch, st.Org, st.Processes, st.Seed, cfg.Org, cfg.Processes, cfg.Seed)
	}
	if len(st.Procs) != cfg.Processes || len(st.ShardStats) != cfg.Cores {
		return nil, fmt.Errorf("%w: snapshot carries %d proc and %d shard records for %d/%d",
			ErrMismatch, len(st.Procs), len(st.ShardStats), cfg.Processes, cfg.Cores)
	}
	pool, err := phys.RestoreStriped(st.Pool)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMismatch, err)
	}
	pool.AmbientFMFI = cfg.FMFI

	specs := workload.Specs(cfg.Scale)
	procs := make([]*process, cfg.Processes)
	schedProcs := make([]*osmodel.Proc, cfg.Processes)
	for pid := range procs {
		p, err := restoreProcess(cfg, pid, specs[pid%len(specs)], pool, st.Procs[pid])
		if err != nil {
			return nil, err
		}
		procs[pid] = p
		schedProcs[pid] = &osmodel.Proc{ID: pid, PT: p.table}
	}

	sharedSeed := runner.DeriveSubSeed(cfg.Seed, "shared", 0)
	tableSrc := snapshot.RestoreSource(st.SharedTableRNG)
	remapSrc := snapshot.RestoreSource(st.SharedRemapRNG)
	table, err := cuckoo.RestoreConcurrent(sharedCuckooConfig(sharedSeed, rand.New(tableSrc)), st.SharedTable)
	if err != nil {
		return nil, fmt.Errorf("%w: shared segment: %v", ErrMismatch, err)
	}
	shared := &sharedRegion{
		table:    table,
		view:     pool.View(^uint64(0)),
		pages:    cfg.SharedPages,
		rng:      rand.New(remapSrc),
		tableSrc: tableSrc,
		remapSrc: remapSrc,
	}
	if err := shared.check(); err != nil {
		return nil, err
	}

	m := &Machine{
		cfg:    cfg,
		pool:   pool,
		procs:  procs,
		shared: shared,
		sd:     st.SD,
		live:   st.Live,
	}
	if err := m.attachInjector(); err != nil {
		return nil, err
	}
	if m.injector != nil && st.Injector != nil {
		if !m.injector.Restore(*st.Injector) {
			return nil, fmt.Errorf("%w: injection policy %q does not match the snapshot's clause structure",
				ErrMismatch, cfg.Inject)
		}
	}
	m.shards = newShards(cfg)
	for i, sh := range m.shards {
		sh.mmu.RestoreStats(st.ShardStats[i])
	}
	m.sched, err = osmodel.RestoreMultiCore(osmodel.DefaultSwitchCosts(), cfg.Cores, st.Sched, schedProcs...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMismatch, err)
	}
	return m, nil
}

// check rejects a restored shared table that does not map exactly the
// segment's pages: every shared access and remap looks its page up and
// panics on a miss. Range leaves the fingerprinted lookup counters alone.
func (s *sharedRegion) check() error {
	seen := make([]bool, s.pages)
	var pages, entries uint64
	s.table.Range(func(key, _ uint64) bool {
		entries++
		if page := key - s.vpn(0); key >= s.vpn(0) && page < s.pages && !seen[page] {
			seen[page] = true
			pages++
		}
		return true
	})
	if pages != s.pages || entries != s.pages || s.table.Len() != s.pages {
		return fmt.Errorf("%w: shared table maps %d of %d segment pages in %d entries (counted %d)",
			ErrMismatch, pages, s.pages, entries, s.table.Len())
	}
	return nil
}

// restoreProcess is newProcess over recorded state: same derivations, no
// fresh allocation, every generator replayed into position.
func restoreProcess(cfg Config, pid int, spec workload.Spec, pool *phys.Striped, ps ProcState) (*process, error) {
	procSeed := runner.DeriveSubSeed(cfg.Seed, "proc", uint64(pid))
	view := pool.View(uint64(pid))
	overlaySrc := snapshot.RestoreSource(ps.Overlay)
	hier, err := cache.RestoreHierarchy(tenantCacheConfig(), ps.Cache)
	if err != nil {
		return nil, fmt.Errorf("tenant: proc %d: %w", pid, err)
	}
	p := &process{
		id:         pid,
		spec:       spec,
		cache:      hier,
		rng:        rand.New(overlaySrc),
		overlaySrc: overlaySrc,
		left:       ps.Left,
		res:        ps.Res,
	}
	if cfg.Replay != nil {
		sec, ok := trace.FindSection(cfg.Replay, uint64(pid))
		if !ok {
			return nil, fmt.Errorf("%w: replay trace has no section for pid %d", ErrMismatch, pid)
		}
		n := uint64(len(sec.VAs))
		if ps.Replay > n || n-ps.Replay < ps.Left {
			return nil, fmt.Errorf("%w: proc %d replay cursor %d leaves fewer than %d of %d records",
				ErrMismatch, pid, ps.Replay, ps.Left, n)
		}
		p.replay = sec.VAs
		p.replayPos = ps.Replay
	} else {
		if ps.Trace.Emitted > ps.Trace.N || ps.Trace.N-ps.Trace.Emitted < ps.Left {
			return nil, fmt.Errorf("%w: proc %d trace at %d of %d accesses cannot cover %d more",
				ErrMismatch, pid, ps.Trace.Emitted, ps.Trace.N, ps.Left)
		}
		p.trace = spec.RestoreTrace(ps.Trace)
	}
	hashSeed := uint64(procSeed)*2654435761 + 12345
	switch cfg.Org {
	case sim.MEHPT:
		if ps.MEHPT == nil {
			return nil, fmt.Errorf("%w: proc %d carries no ME-HPT state", ErrMismatch, pid)
		}
		tc := mehpt.DefaultConfig(hashSeed)
		p.tableSrc = snapshot.RestoreSource(ps.Table)
		tc.Rand = rand.New(p.tableSrc)
		table, err := mehpt.RestorePageTable(view, tc, *ps.MEHPT)
		if err != nil {
			return nil, fmt.Errorf("%w: proc %d: %v", ErrMismatch, pid, err)
		}
		p.table = table
	case sim.ECPT:
		if ps.ECPT == nil {
			return nil, fmt.Errorf("%w: proc %d carries no ECPT state", ErrMismatch, pid)
		}
		tc := ecpt.DefaultConfig(hashSeed)
		p.tableSrc = snapshot.RestoreSource(ps.Table)
		tc.Rand = rand.New(p.tableSrc)
		table, err := ecpt.RestorePageTable(view, tc, *ps.ECPT)
		if err != nil {
			return nil, fmt.Errorf("%w: proc %d: %v", ErrMismatch, pid, err)
		}
		p.table = table
	case sim.Radix:
		if ps.Radix == nil {
			return nil, fmt.Errorf("%w: proc %d carries no radix state", ErrMismatch, pid)
		}
		pt, err := radix.Restore(*ps.Radix, view)
		if err != nil {
			return nil, fmt.Errorf("tenant: proc %d: %w", pid, err)
		}
		p.table = pt
	default:
		return nil, fmt.Errorf("tenant: unknown organization %v", cfg.Org)
	}
	p.os = osmodel.New(osmodel.DefaultConfig(), p.table, view)
	p.os.RestoreStats(ps.OS)
	return p, nil
}

// Checkpoint atomically writes the machine's state to path (see
// snapshot.Save). Crash points fire on both sides of the write, so the
// chaos harness can kill a run with a half-valid checkpoint pair and prove
// recovery picks the intact one.
func (m *Machine) Checkpoint(path string) error {
	if err := m.crasher.At(inject.KillCheckpointBefore); err != nil {
		return err
	}
	if err := snapshot.Save(path, m.State()); err != nil {
		return err
	}
	return m.crasher.At(inject.KillCheckpointAfter)
}

// LoadMachine restores a machine from a checkpoint file written by
// Checkpoint. Envelope failures surface the snapshot package's typed
// sentinels (ErrTruncated, ErrChecksum, ErrVersion, ...); identity
// failures surface ErrMismatch.
func LoadMachine(cfg Config, path string) (*Machine, error) {
	var st MachineState
	if err := snapshot.Load(path, &st); err != nil {
		return nil, err
	}
	return RestoreMachine(cfg, &st)
}
