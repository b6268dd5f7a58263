package tenant

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/addr"
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
	"repro/internal/snapshot"
	"repro/internal/stats"
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
	// Not in the snapshot: chaos-harness kill switch, armed per run via SetCrasher; a recovered machine starts disarmed by design
	crasher *inject.Crasher
}

// NewMachine constructs a machine at round zero.
func NewMachine(cfg Config) (*Machine, error) {
	return open(cfg.withDefaults(), nil)
}

// open boots a machine under cfg (defaults applied): at round zero when st
// is nil, else from st. Construction-derived values (seed tree, hash
// seeds, stripe homes) come from cfg either way, and a restore replays
// every generator to its recorded position, so stepping the restored
// machine reproduces the uninterrupted run bit for bit. Any failure to
// restore st is an ErrMismatch.
func open(cfg Config, st *MachineState) (m *Machine, err error) {
	// A policy that does not parse is a configuration error, not a
	// snapshot mismatch, so it is parsed before anything is restored.
	var policy inject.Policy
	if cfg.Inject != "" {
		if policy, err = inject.Parse(cfg.Inject, runner.DeriveSubSeed(cfg.Seed, "inject", 0)); err != nil {
			return nil, fmt.Errorf("tenant: %w", err)
		}
	}
	var pool *phys.Striped
	if st == nil {
		pool = phys.NewStriped(cfg.MemBytes, cfg.Stripes, cfg.FMFI)
	} else {
		defer func() {
			if err != nil && !errors.Is(err, ErrMismatch) {
				err = fmt.Errorf("%w: %w", ErrMismatch, err)
			}
		}()
		if pool, err = phys.RestoreStriped(st.Pool, cfg.FMFI); err != nil {
			return nil, err
		}
	}

	specs := workload.Specs(cfg.Scale)
	procs := make([]*process, cfg.Processes)
	schedProcs := make([]*osmodel.Proc, cfg.Processes)
	for pid := range procs {
		var ps *ProcState
		if st != nil {
			ps = &st.Procs[pid]
		}
		p, err := openProcess(cfg, pid, specs[pid%len(specs)], pool, ps)
		if err != nil {
			return nil, err
		}
		procs[pid] = p
		schedProcs[pid] = &osmodel.Proc{ID: pid, PT: p.table}
	}

	shared, err := openShared(cfg, pool, st)
	if err != nil {
		return nil, err
	}
	if st != nil {
		if err := checkOwners(pool, procs, shared); err != nil {
			return nil, err
		}
	}

	m = &Machine{
		cfg:    cfg,
		pool:   pool,
		procs:  procs,
		shards: make([]*shard, cfg.Cores),
		shared: shared,
		live:   cfg.Processes,
	}
	for c := range m.shards {
		m.shards[c] = newShard(cfg.Org, shared)
	}

	// Fault injection arms only after boot: construction-time allocations
	// (initial ways, the shared premap) are machine setup, not tenant
	// activity, and injecting there would fail the whole machine rather
	// than exercise tenant isolation.
	if policy != nil {
		m.injector = inject.AttachStriped(pool, policy)
	}
	if st == nil {
		m.sched = osmodel.NewMultiCore(osmodel.DefaultSwitchCosts(), cfg.Cores,
			runner.DeriveSubSeed(cfg.Seed, "sched", 0), schedProcs...)
		return m, nil
	}
	if m.injector != nil && st.Injector != nil && !m.injector.Restore(*st.Injector) {
		return nil, fmt.Errorf("injection policy %q does not match the snapshot's clause structure", cfg.Inject)
	}
	m.sd, m.live = st.SD, st.Live
	for i, sh := range m.shards {
		sh.mmu.RestoreStats(st.ShardStats[i])
	}
	if m.sched, err = osmodel.RestoreMultiCore(osmodel.DefaultSwitchCosts(), cfg.Cores, st.Sched, schedProcs...); err != nil {
		return nil, err
	}
	return m, nil
}

// Done reports whether every tenant has exhausted its budget (or failed).
func (m *Machine) Done() bool { return m.live == 0 }

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

	SharedTable    SharedTableState
	SharedTableRNG snapshot.SourceState
	SharedRemapRNG snapshot.SourceState

	ShardStats []mmu.Stats
	SD         stats.Shootdowns
	Live       int
	Injector   *inject.InjectorState
}

// SharedTableState is the shared segment's table. ROLookups and
// ROProbeSlots hold lookups counted outside the table's own stats, as
// checkpoints from before the segment became a plain cuckoo.Table
// recorded them. State writes them as zero, and a restore folds them into
// the table's Lookups and ProbeSlots, so those checkpoints still resume.
type SharedTableState struct {
	Table        cuckoo.TableState
	ROLookups    uint64
	ROProbeSlots uint64
}

// State captures the machine. Call it only at a round boundary (between
// StepRound calls): mid-round state includes shard-resident translation
// context the snapshot deliberately omits.
func (m *Machine) State() *MachineState {
	st := &MachineState{
		Org:       m.cfg.Org.String(),
		Processes: m.cfg.Processes,
		Seed:      m.cfg.Seed,
		Pool:      m.pool.State(),
		Procs:     make([]ProcState, len(m.procs)),
		Sched:     m.sched.State(),
		// The table's own stats count every shared walk, so the
		// read-only counts are written as zero.
		SharedTable: SharedTableState{
			Table:        m.shared.table.State(),
			ROLookups:    0,
			ROProbeSlots: 0,
		},
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
// configuration. Identity fields are cross-checked, and any disagreement,
// like any state the machine cannot be rebuilt from, is an ErrMismatch.
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
	if st.Live < 0 || st.Live > cfg.Processes {
		return nil, fmt.Errorf("%w: snapshot has %d live tenants of %d", ErrMismatch, st.Live, cfg.Processes)
	}
	if err := checkDraws(cfg, st); err != nil {
		return nil, err
	}
	return open(cfg, st)
}

// checkDraws rejects a generator position no run of cfg can reach, before
// anything is restored: a restore burns a source's recorded draws one step
// at a time, so an absurd count would hang it instead of failing it.
//
// Each generator draws only on events of the run. An access draws at most
// four steps from its tenant's trace (a hot-set or jump Float64 and two
// Int63) and two from its overlay (a Float64 and a shared-page pick), and
// it faults, allocates and inserts into a page table at most a few times;
// each insert picks a way at most MaxKicks times per placement, for the
// entry itself and the entries a resize step migrates with it. A round
// shuffles the Processes pids once and picks RemapsPerRound shared pages,
// and the shared segment's premap inserts SharedPages entries. Rounds
// number at most AccessesPerProc/Quantum + 1, since every live tenant runs
// a quantum of its budget each round. Allowing 2^16 steps per event leaves
// a wide margin over the few each event draws, redraws of a rejected
// Float64 or Intn included.
func checkDraws(cfg Config, st *MachineState) error {
	rounds := cfg.AccessesPerProc/cfg.Quantum + 1
	events := uint64(cfg.Processes)*cfg.AccessesPerProc + cfg.SharedPages +
		rounds*uint64(cfg.Processes+cfg.RemapsPerRound)
	limit := uint64(math.MaxUint64)
	if events < 1<<48 {
		limit = events << 16
	}
	srcs := []snapshot.SourceState{st.SharedTableRNG, st.SharedRemapRNG, st.Sched.RNG}
	for _, ps := range st.Procs {
		srcs = append(srcs, ps.Trace.RNG, ps.Overlay, ps.Table)
	}
	if st.Injector != nil {
		srcs = append(srcs, st.Injector.RNG...)
	}
	for _, s := range srcs {
		if s.Draws > limit {
			return fmt.Errorf("%w: a generator records %d draws, a run of this config draws at most %d",
				ErrMismatch, s.Draws, limit)
		}
	}
	return nil
}

// checkOwners rejects a restored machine whose page tables, private
// mappings and shared segment do not hold disjoint blocks the pool shows
// as granted. Owners free their blocks sooner or later, and freeing a
// block the pool does not show as granted panics in the allocator; a
// block with two owners is a machine no run could have made.
func checkOwners(pool *phys.Striped, procs []*process, shared *sharedRegion) error {
	type block struct {
		base  addr.PPN
		bytes uint64
	}
	var blocks []block
	claim := func(base addr.PPN, bytes uint64) { blocks = append(blocks, block{base, bytes}) }
	for _, p := range procs {
		p.table.(frameVisitor).VisitOwnedFrames(claim)
		p.table.(mappingVisitor).VisitMappings(func(_ addr.VPN, s addr.PageSize, ppn addr.PPN) {
			claim(ppn<<(s.Shift()-addr.Page4K.Shift()), s.Bytes())
		})
	}
	shared.table.Range(func(_, ppn uint64) bool {
		claim(addr.PPN(ppn), 4*addr.KB)
		return true
	})
	slices.SortFunc(blocks, func(a, b block) int { return cmp.Compare(a.base, b.base) })
	var end addr.PPN
	for _, b := range blocks {
		if !pool.Holds(b.base, b.bytes) || b.base < end {
			return fmt.Errorf("a %d-byte block at frame %d is not allocated in the pool, or has two owners", b.bytes, b.base)
		}
		end = b.base + addr.PPN(phys.BlockBytes(phys.OrderFor(b.bytes))/phys.FrameBytes)
	}
	return nil
}

// check rejects a restored shared table that does not map exactly the
// segment's pages: a remap panics on a page the table misses, and a walk
// that misses one fails its tenant. Range leaves the fingerprinted lookup
// counters alone.
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
