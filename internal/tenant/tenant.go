// Package tenant is the multi-tenant sharded simulation mode: N simulated
// cores replaying interleaved traces from many simulated processes, every
// address space allocating frames from one machine-wide striped pool
// (phys.Striped), with a read-mostly shared segment mapped by an elastic
// cuckoo table (cuckoo.Table) and remapped periodically to drive
// TLB-shootdown traffic.
//
// Every reference, private or shared, runs through its core's sim.Engine.
// Each core's MMU walks the shared segment's address window through the
// shared table (mmu.MMU.BindShared) with a hashed walker of its own, and
// the bound tenant's page table everywhere else, so a shared reference
// pays the same TLB probes, CWC lookup and page-table probe as any other
// hashed walk.
//
// # Determinism contract
//
// A machine executes in *canonical order*: one goroutine visits processes
// round by round in a seeded-permutation order drawn by the MultiCore
// scheduler, whose schedule is a pure function of (seed, round) — never of
// the core count. Host parallelism stays where PR 1 put it, at the
// experiment-matrix level. Core-count invariance comes from two rules:
//
//   - Pinning: process pid runs on core pid mod C, a pure function of
//     identity.
//   - Canonical cold start: a core's translation shard (TLBs, CWCs/PWCs)
//     is rebound and flushed at *every* quantum boundary, incumbent or
//     not, so the state a quantum starts from never depends on what the
//     core ran before — i.e. on C. Data-cache state is per-process and
//     follows the process across cores.
//
// Everything that feeds the run fingerprint (per-process cycles, faults,
// walk counts, pool accounting, shootdown events and sharers) is therefore
// bit-identical at any simulated core count and any host worker count.
// Metrics that *legitimately* depend on packing — context switches saved by
// incumbency, IPIs delivered per shootdown — are reported as core-view
// metrics outside the fingerprint (see stats.Shootdowns).
//
// # Seed tree
//
// Every generator derives from the machine seed through the splitmix64
// seed tree (runner.DeriveSubSeed): per-process trace, table, and
// shared-overlay RNGs under "proc"/pid, the scheduler permutation under
// "sched", the shared-region manager under "shared", and the injection
// policy under "inject". No RNG is ever shared between two owners.
package tenant

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/cuckoo"
	"repro/internal/mmu"
	"repro/internal/osmodel"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SharedBaseVA is where the machine-wide shared segment lives; it is far
// above workload.BaseVA so shared and private pages never collide.
const SharedBaseVA = addr.VirtAddr(0x7F00_0000_0000)

// sharedPTBase is the synthetic physical region where the shared segment's
// hashed page-table ways notionally live (distinct from data and per-
// process page-table addresses): the table's ways own no pool frames.
const sharedPTBase = addr.PhysAddr(1) << 46

// ipiCycles is the core-view cost of delivering one shootdown IPI: a
// remote interrupt, TLB invalidation, and acknowledgment.
const ipiCycles = 2000

// Config parameterizes one multi-tenant machine.
type Config struct {
	Org       sim.Org
	Processes int
	Cores     int
	// MemBytes is the pooled physical capacity behind the striped allocator.
	MemBytes uint64
	// Stripes is the stripe count; 0 picks min(8, Processes).
	Stripes int
	// FMFI is the ambient fragmentation used to price allocations.
	FMFI float64
	// Seed is the machine seed; derive it from the suite seed and the job
	// identity (runner.DeriveSeed) so the fingerprint is identity-pure.
	Seed int64
	// AccessesPerProc is each process's total access budget.
	AccessesPerProc uint64
	// Quantum is the accesses a process executes per scheduling visit.
	Quantum uint64
	// Scale divides workload footprints (workload.Specs); tenants cycle
	// through the paper's eleven applications.
	Scale uint64
	// SharedPages sizes the machine-wide shared segment (4KB pages).
	SharedPages uint64
	// SharedFraction is the probability an access targets the shared
	// segment instead of the process's private trace.
	SharedFraction float64
	// RemapsPerRound is how many shared pages are remapped (each remap is
	// one TLB-shootdown event) at the end of every scheduling round.
	RemapsPerRound int
	// Inject, when non-empty, is an inject.Parse policy applied to the
	// shared pool's allocations.
	Inject string
	// Replay, when non-nil, supplies every tenant's private access stream
	// from a recorded binary trace (one section per PID; see RecordTraces)
	// instead of the statistical generators. A machine replaying the trace
	// RecordTraces wrote for the same Config lands on the identical
	// fingerprint — the trace seed tree is the same either way.
	Replay []trace.Section
}

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.Processes <= 0 {
		c.Processes = 8
	}
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.MemBytes == 0 {
		c.MemBytes = 4 * addr.GB
	}
	if c.Stripes <= 0 {
		c.Stripes = 8
		if c.Processes < c.Stripes {
			c.Stripes = c.Processes
		}
	}
	if c.AccessesPerProc == 0 {
		c.AccessesPerProc = 4096
	}
	if c.Quantum == 0 {
		c.Quantum = 1024
	}
	if c.Scale == 0 {
		c.Scale = 4096
	}
	if c.SharedPages == 0 {
		c.SharedPages = 256
	}
	if c.SharedFraction == 0 {
		c.SharedFraction = 0.05
	}
	if c.RemapsPerRound == 0 {
		c.RemapsPerRound = 4
	}
	return c
}

// ProcResult is one tenant's canonical accounting.
type ProcResult struct {
	PID            int    `json:"pid"`
	Workload       string `json:"workload"`
	Accesses       uint64 `json:"accesses"`
	SharedAccesses uint64 `json:"shared_accesses"`
	Faults         uint64 `json:"faults"`
	XlatCycles     uint64 `json:"xlat_cycles"`
	DataCycles     uint64 `json:"data_cycles"`
	OSCycles       uint64 `json:"os_cycles"`
	Failed         bool   `json:"failed"`
	Failure        string `json:"failure,omitempty"`
	// FailureErr carries the typed error chain for errors.Is assertions;
	// it is excluded from JSON and from the fingerprint.
	FailureErr error `json:"-"`
}

// Result is one machine run. Canonical fields feed the Fingerprint;
// core-view fields (switches, IPIs) are reported alongside but excluded,
// since they legitimately vary with the simulated core count.
type Result struct {
	Org       string `json:"org"`
	Processes int    `json:"processes"`
	Cores     int    `json:"cores"`

	Procs []ProcResult `json:"procs"`

	// Canonical machine-wide accounting.
	Walks            uint64           `json:"walks"`
	WalkCycles       uint64           `json:"walk_cycles"`
	TLBHits          uint64           `json:"tlb_hits"`
	SharedLookups    uint64           `json:"shared_lookups"`
	SharedLen        uint64           `json:"shared_len"`
	PoolAllocs       uint64           `json:"pool_allocs"`
	PoolFrees        uint64           `json:"pool_frees"`
	PoolFailedAllocs uint64           `json:"pool_failed_allocs"`
	PoolFreeBytes    uint64           `json:"pool_free_bytes"`
	Rounds           uint64           `json:"rounds"`
	Shootdowns       stats.Shootdowns `json:"shootdowns"`

	// Core-view metrics (outside the fingerprint).
	Switches     uint64 `json:"switches"`
	SwitchCycles uint64 `json:"switch_cycles"`

	// Fingerprint is the SHA-256 of the canonical fields, the value the
	// determinism matrix asserts bit-identical across host worker counts
	// and simulated core counts.
	Fingerprint string `json:"fingerprint"`
}

// canonical is the fingerprinted projection of a Result: everything except
// the core-view metrics. Shootdown IPI fields are zeroed before hashing.
type canonical struct {
	Org              string           `json:"org"`
	Processes        int              `json:"processes"`
	Procs            []ProcResult     `json:"procs"`
	Walks            uint64           `json:"walks"`
	WalkCycles       uint64           `json:"walk_cycles"`
	TLBHits          uint64           `json:"tlb_hits"`
	SharedLookups    uint64           `json:"shared_lookups"`
	SharedLen        uint64           `json:"shared_len"`
	PoolAllocs       uint64           `json:"pool_allocs"`
	PoolFrees        uint64           `json:"pool_frees"`
	PoolFailedAllocs uint64           `json:"pool_failed_allocs"`
	PoolFreeBytes    uint64           `json:"pool_free_bytes"`
	Rounds           uint64           `json:"rounds"`
	Shootdowns       stats.Shootdowns `json:"shootdowns"`
}

// fingerprint hashes the canonical projection.
func (r *Result) fingerprint() string {
	sd := r.Shootdowns
	sd.IPIsDelivered, sd.IPICycles = 0, 0
	c := canonical{
		Org: r.Org, Processes: r.Processes, Procs: r.Procs,
		Walks: r.Walks, WalkCycles: r.WalkCycles, TLBHits: r.TLBHits,
		SharedLookups: r.SharedLookups, SharedLen: r.SharedLen,
		PoolAllocs: r.PoolAllocs, PoolFrees: r.PoolFrees,
		PoolFailedAllocs: r.PoolFailedAllocs, PoolFreeBytes: r.PoolFreeBytes,
		Rounds: r.Rounds, Shootdowns: sd,
	}
	b, err := json.Marshal(c)
	if err != nil {
		panic("tenant: canonical result not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tenantCacheConfig is the per-process data-cache slice: a CAT-style
// partition of the Table III hierarchy (smaller shares of L2/L3), so
// hundreds of tenants fit in simulator memory while cache behaviour stays
// per-address-space — and therefore core-count invariant.
func tenantCacheConfig() cache.HierarchyConfig {
	return cache.HierarchyConfig{
		L1:          cache.Config{SizeBytes: 32 * addr.KB, Ways: 8, LineBytes: 64, Latency: 2},
		L2:          cache.Config{SizeBytes: 128 * addr.KB, Ways: 8, LineBytes: 64, Latency: 16},
		L3:          cache.Config{SizeBytes: 512 * addr.KB, Ways: 16, LineBytes: 64, Latency: 56},
		DRAMLatency: 200,
	}
}

// process is one simulated tenant.
type process struct {
	id    int
	spec  workload.Spec
	table osmodel.PageTable
	os    *osmodel.OS
	cache *cache.Hierarchy
	// Exactly one of trace (generated stream) and replay (recorded stream)
	// is set, per Config.Replay.
	trace     *workload.Trace
	replay    []addr.VirtAddr
	replayPos uint64
	rng       *rand.Rand // shared-overlay draws, private to this tenant
	left      uint64

	// Counting sources under the tenant's generators, so a checkpoint can
	// record exact stream positions: overlaySrc feeds rng, tableSrc feeds
	// the page-table config's Rand (nil for radix, which draws nothing).
	overlaySrc *snapshot.Source
	tableSrc   *snapshot.Source

	res ProcResult
}

func (p *process) fail(err error) {
	p.res.Failed = true
	p.res.Failure = err.Error()
	p.res.FailureErr = err
	p.left = 0
}

// shard is one core's MMU: the per-core translation structures every
// quantum rebinds to the incoming process.
type shard struct {
	mmu *mmu.MMU
	// eng runs the bound tenant's references through this core's MMU.
	eng sim.Engine
	// vas buffers the quantum's pending references, priv the private ones
	// among them as the tenant's trace supplies them.
	vas  [mmu.BatchWidth]addr.VirtAddr
	priv [mmu.BatchWidth]addr.VirtAddr
}

// runQuantum marks a batch's shared references in one 64-bit word.
const _ = uint64(64 - mmu.BatchWidth)

// newShard builds a core's MMU with the shared segment's window bound.
func newShard(org sim.Org, shared *sharedRegion) *shard {
	s := &shard{mmu: sim.NewMMU(org, nil, nil)}
	s.mmu.BindShared(shared.va(0), shared.va(shared.pages), shared)
	s.eng.MMU = s.mmu
	return s
}

func (s *shard) bind(p *process) {
	s.eng.Cache, s.eng.OS = p.cache, p.os
	s.mmu.Mem = p.cache
	s.mmu.Bind(p.table)
}

// sharedRegion is the machine-wide read-mostly segment: an elastic cuckoo
// table mapping shared VPNs to pool frames.
type sharedRegion struct {
	table *cuckoo.Table
	view  phys.Source
	pages uint64
	rng   *rand.Rand // remap picks, owned by the shared-region manager

	// Counting sources under the region's generators (see process).
	tableSrc *snapshot.Source
	remapSrc *snapshot.Source
}

func (s *sharedRegion) vpn(page uint64) uint64 {
	return uint64(SharedBaseVA.PageNumber(addr.Page4K)) + page
}

// va is the address of a shared page.
func (s *sharedRegion) va(page uint64) addr.VirtAddr {
	return SharedBaseVA + addr.VirtAddr(page*4*addr.KB)
}

// Translate resolves a shared-window address through the shared table.
func (s *sharedRegion) Translate(va addr.VirtAddr) (pt.Translation, bool) {
	tr, _, ok := s.Walk(va)
	return tr, ok
}

// Walk is Translate additionally returning the address of the slot the
// lookup hit: each (way, resize target) pair of the table notionally
// occupies its own 4GB stretch above sharedPTBase, one 8-byte entry per
// slot.
func (s *sharedRegion) Walk(va addr.VirtAddr) (pt.Translation, addr.PhysAddr, bool) {
	ppn, slot, ok := s.table.LookupSlot(uint64(va.PageNumber(addr.Page4K)))
	if !ok {
		return pt.Translation{}, 0, false
	}
	region := uint64(slot.Way) << 1
	if slot.InNext {
		region++
	}
	probe := sharedPTBase + addr.PhysAddr(region<<32+slot.Idx*8)
	return pt.Translation{PPN: addr.PPN(ppn), Size: addr.Page4K}, probe, true
}

// Run executes one multi-tenant machine to completion and returns its
// result. It never panics on memory pressure: a tenant whose fault cannot
// be serviced is marked failed and descheduled while the machine carries
// the remaining tenants to completion (tenant isolation). Run is the
// one-shot wrapper over the resumable Machine (see machine.go).
func Run(cfg Config) (*Result, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	for !m.Done() {
		if err := m.StepRound(); err != nil {
			return nil, err
		}
	}
	return m.Collect(), nil
}

// RecordTraces writes every tenant's private access stream as one binary
// trace with a per-PID section table (trace.WriteBinary). The streams are
// regenerated from cfg's seed tree — the same derivation openProcess uses —
// so a machine run with Config.Replay set to the recorded sections produces
// the identical fingerprint as a generated-trace run of the same Config.
func RecordTraces(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	specs := workload.Specs(cfg.Scale)
	sections := make([]trace.Section, cfg.Processes)
	for pid := 0; pid < cfg.Processes; pid++ {
		procSeed := runner.DeriveSubSeed(cfg.Seed, "proc", uint64(pid))
		tr := specs[pid%len(specs)].NewTrace(runner.DeriveSubSeed(procSeed, "trace", 0), cfg.AccessesPerProc)
		vas := make([]addr.VirtAddr, 0, cfg.AccessesPerProc)
		for {
			va, ok := tr.Next()
			if !ok {
				break
			}
			vas = append(vas, va)
		}
		sections[pid] = trace.Section{PID: uint64(pid), VAs: vas}
	}
	return trace.WriteBinary(w, sections)
}

// openProcess boots tenant pid over its pool view: its page table, OS
// layer, private cache slice, trace and overlay generator. A nil ps boots
// it fresh, which differs from a restore only in building the page table
// and cache anew: every generator and counter starts from the round-zero
// position ps would record.
func openProcess(cfg Config, pid int, spec workload.Spec, pool *phys.Striped, ps *ProcState) (*process, error) {
	procSeed := runner.DeriveSubSeed(cfg.Seed, "proc", uint64(pid))
	view := pool.View(uint64(pid))
	fresh := ps == nil
	if fresh {
		ps = &ProcState{
			Res:  ProcResult{PID: pid, Workload: spec.Name},
			Left: cfg.AccessesPerProc,
			Trace: workload.TraceState{
				N:   cfg.AccessesPerProc,
				RNG: snapshot.SourceState{Seed: runner.DeriveSubSeed(procSeed, "trace", 0)},
			},
			Overlay: snapshot.SourceState{Seed: runner.DeriveSubSeed(procSeed, "overlay", 0)},
			Table:   snapshot.SourceState{Seed: runner.DeriveSubSeed(procSeed, "table", 0)},
		}
	}
	p := &process{
		id:         pid,
		spec:       spec,
		left:       ps.Left,
		overlaySrc: snapshot.RestoreSource(ps.Overlay),
		res:        ps.Res,
	}
	p.rng = rand.New(p.overlaySrc)
	var ts *sim.TableState
	if fresh {
		p.cache = cache.NewHierarchy(tenantCacheConfig())
	} else {
		hier, err := cache.RestoreHierarchy(tenantCacheConfig(), ps.Cache)
		if err != nil {
			return nil, fmt.Errorf("tenant: proc %d: %w", pid, err)
		}
		p.cache = hier
		ts = &sim.TableState{Radix: ps.Radix, ECPT: ps.ECPT, MEHPT: ps.MEHPT}
	}
	if cfg.Replay != nil {
		sec, ok := trace.FindSection(cfg.Replay, uint64(pid))
		if !ok {
			return nil, fmt.Errorf("tenant: replay trace has no section for pid %d", pid)
		}
		if n := uint64(len(sec.VAs)); ps.Replay > n || n-ps.Replay < ps.Left {
			return nil, fmt.Errorf("tenant: proc %d replay cursor %d leaves fewer than %d of %d records",
				pid, ps.Replay, ps.Left, n)
		}
		p.replay, p.replayPos = sec.VAs, ps.Replay
	} else {
		if ps.Trace.Emitted > ps.Trace.N || ps.Trace.N-ps.Trace.Emitted < ps.Left {
			return nil, fmt.Errorf("tenant: proc %d trace at %d of %d accesses cannot cover %d more",
				pid, ps.Trace.Emitted, ps.Trace.N, ps.Left)
		}
		p.trace = spec.RestoreTrace(ps.Trace)
	}
	hashSeed := uint64(procSeed)*2654435761 + 12345
	newRand := func() rand.Source {
		p.tableSrc = snapshot.RestoreSource(ps.Table)
		return p.tableSrc
	}
	var err error
	if p.table, err = sim.OpenTable(cfg.Org, view, hashSeed, newRand, nil, ts); err != nil {
		return nil, fmt.Errorf("tenant: proc %d: %w", pid, err)
	}
	p.os = osmodel.New(osmodel.DefaultConfig(), p.table, view)
	p.os.RestoreStats(ps.OS)
	return p, nil
}

// openShared boots the shared segment, fresh when st is nil and restored
// from st otherwise. A fresh segment is premapped, which drives the table
// through its growth path (gradual resizes) before the first round.
func openShared(cfg Config, pool *phys.Striped, st *MachineState) (*sharedRegion, error) {
	sharedSeed := runner.DeriveSubSeed(cfg.Seed, "shared", 0)
	tableRNG := snapshot.SourceState{Seed: runner.DeriveSubSeed(sharedSeed, "table", 0)}
	remapRNG := snapshot.SourceState{Seed: runner.DeriveSubSeed(sharedSeed, "remap", 0)}
	if st != nil {
		tableRNG, remapRNG = st.SharedTableRNG, st.SharedRemapRNG
	}
	s := &sharedRegion{
		view:     pool.View(^uint64(0)),
		pages:    cfg.SharedPages,
		tableSrc: snapshot.RestoreSource(tableRNG),
		remapSrc: snapshot.RestoreSource(remapRNG),
	}
	s.rng = rand.New(s.remapSrc)
	tc := cuckoo.Config{
		Ways:           3,
		InitialEntries: 64,
		MaxKicks:       32,
		HashSeed:       uint64(sharedSeed)*2654435761 + 12345,
		Rand:           rand.New(s.tableSrc),
	}
	if st != nil {
		ts := st.SharedTable.Table
		ts.Stats.Lookups += st.SharedTable.ROLookups
		ts.Stats.ProbeSlots += st.SharedTable.ROProbeSlots
		table, err := cuckoo.RestoreTable(tc, ts)
		if err != nil {
			return nil, fmt.Errorf("tenant: shared segment: %w", err)
		}
		s.table = table
		if err := s.check(); err != nil {
			return nil, err
		}
		return s, nil
	}
	s.table = cuckoo.New(tc)
	for page := uint64(0); page < s.pages; page++ {
		ppn, _, err := s.view.Alloc(4 * addr.KB)
		if err != nil {
			return nil, fmt.Errorf("tenant: premapping shared page %d: %w", page, err)
		}
		if _, err := s.table.Insert(s.vpn(page), uint64(ppn)); err != nil {
			return nil, fmt.Errorf("tenant: shared table insert: %w", err)
		}
	}
	return s, nil
}

// runQuantum executes up to cfg.Quantum accesses of p on shard sh, through
// the shard's engine, a batch of up to mmu.BatchWidth references at a
// time. Each reference draws its private/shared choice from the tenant's
// overlay RNG, and a shared one then its page, in reference order; the
// private ones take the tenant's next trace references. Neither the draws
// nor the trace depend on translation results, and the engine's result
// does not depend on how references are batched, so every canonical result
// matches a one-reference-at-a-time loop.
func runQuantum(cfg Config, p *process, sh *shard, shared *sharedRegion) {
	n := cfg.Quantum
	if n > p.left {
		n = p.left
	}
	for n > 0 {
		k := uint64(len(sh.vas))
		if k > n {
			k = n
		}
		n -= k
		var isShared uint64 // bit i: reference i targets the shared segment
		for i := range sh.vas[:k] {
			if p.rng.Float64() < cfg.SharedFraction {
				sh.vas[i] = shared.va(uint64(p.rng.Int63()) % shared.pages)
				isShared |= 1 << i
			}
		}
		priv := sh.priv[:k-uint64(bits.OnesCount64(isShared))]
		p.nextPrivate(priv)
		for i := range sh.vas[:k] {
			if isShared&(1<<i) == 0 {
				sh.vas[i], priv = priv[0], priv[1:]
			}
		}
		var t sim.Tally
		err := sh.eng.Run(sh.vas[:k], &t)
		p.res.Accesses += t.Accesses
		p.res.SharedAccesses += uint64(bits.OnesCount64(isShared & (1<<t.Accesses - 1)))
		p.left -= t.Accesses
		p.res.XlatCycles += t.XlatCycles
		p.res.DataCycles += t.DataCycles
		p.res.OSCycles += t.OSCycles
		if err != nil {
			p.fail(err) // the failing reference is not counted
			return
		}
	}
}

// nextPrivate fills vas with p's next private trace references.
func (p *process) nextPrivate(vas []addr.VirtAddr) {
	var n int
	if p.replay != nil {
		n = copy(vas, p.replay[p.replayPos:])
		p.replayPos += uint64(n)
	} else {
		n = p.trace.NextBatch(vas)
	}
	if n < len(vas) {
		// The trace is sized to the access budget; exhaustion here means
		// the budget accounting drifted, which would silently shorten runs.
		panic("tenant: trace exhausted before access budget")
	}
}

// remapRound performs the end-of-round shared-page remaps, each one a TLB
// shootdown (remap) of which every other live address space is notified.
// IPI delivery is core-view: one interrupt per core with a resident
// address space.
func remapRound(cfg Config, shared *sharedRegion, procs []*process,
	shards []*shard, sched *osmodel.MultiCore, sd *stats.Shootdowns) {
	liveSharers := 0
	for _, p := range procs {
		if !p.res.Failed {
			liveSharers++
		}
	}
	for k := 0; k < cfg.RemapsPerRound; k++ {
		if !shared.remap(uint64(shared.rng.Int63())%shared.pages, shards) {
			continue
		}
		sd.Events++
		if liveSharers > 0 {
			sd.SharersNotified += uint64(liveSharers - 1)
		}
		resident := uint64(0)
		for c := 0; c < sched.Cores(); c++ {
			if sched.Incumbent(c) >= 0 {
				resident++
			}
		}
		sd.IPIsDelivered += resident
		sd.IPICycles += resident * ipiCycles
	}
}

// remap moves shared page to a fresh frame: the new frame replaces the old
// one in the shared table's slot (Replace, which counts no lookup), the old
// frame is freed, and every core's TLB and shared CWC drop the page. It
// returns false, changing nothing, when the pool refuses the frame (genuine
// or injected pressure): the remap is deferred and the old mapping stays
// valid — degradation, not corruption.
//
// Quanta start cold (canonical cold start), so the invalidation is model
// hygiene with no canonical effect, but it keeps the shards honest for
// anyone inspecting them between rounds.
func (s *sharedRegion) remap(page uint64, shards []*shard) bool {
	ppn, _, err := s.view.Alloc(4 * addr.KB)
	if err != nil {
		return false
	}
	old, ok := s.table.Replace(s.vpn(page), uint64(ppn))
	if !ok {
		panic("tenant: remapping unmapped shared page")
	}
	s.view.Free(addr.PPN(old), 4*addr.KB)
	for _, sh := range shards {
		sh.mmu.Invalidate(s.va(page), addr.Page4K)
	}
	return true
}

// collect assembles the Result and computes its fingerprint.
func collect(cfg Config, procs []*process, shards []*shard,
	shared *sharedRegion, pool *phys.Striped, sched *osmodel.MultiCore,
	sd stats.Shootdowns) *Result {
	r := &Result{
		Org:       cfg.Org.String(),
		Processes: cfg.Processes,
		Cores:     cfg.Cores,
		Rounds:    sched.Rounds(),
	}
	for _, p := range procs {
		p.res.Faults = p.os.Stats().Faults
		r.Procs = append(r.Procs, p.res)
	}
	for _, sh := range shards {
		st := sh.mmu.Stats()
		r.Walks += st.Walks
		r.WalkCycles += st.WalkCycles
		r.TLBHits += st.L1Hits + st.L2Hits
	}
	cs := shared.table.Stats()
	r.SharedLookups = cs.Lookups
	r.SharedLen = shared.table.Len()
	ps := pool.StatsSum()
	r.PoolAllocs = ps.Allocs
	r.PoolFrees = ps.Frees
	r.PoolFailedAllocs = ps.FailedAllocs
	r.PoolFreeBytes = pool.FreeBytes()
	r.Shootdowns = sd
	ss := sched.Stats()
	r.Switches = ss.Switches
	r.SwitchCycles = ss.SwitchCycles
	r.Fingerprint = r.fingerprint()
	return r
}
