// Package sim is the trace-driven simulation engine: it wires a workload,
// an OS model, an MMU, a page-table organization, and the physical
// memory substrate into one simulated machine, runs an access trace, and
// accounts cycles the way the paper's evaluation does.
//
// The cycle model is in-order: each memory reference costs its translation
// latency (TLB hit or page walk) plus its data-access latency through the
// cache hierarchy; page faults additionally cost the OS fault path,
// including the contiguous-allocation cycle costs at the configured memory
// fragmentation. Absolute cycle counts are not meaningful — only the
// relative comparison between page-table organizations is (Figure 9).
//
// # Concurrency and RNG ownership
//
// A Machine is confined to the goroutine that runs it: the page tables it
// wires up (mehpt, ecpt, cuckoo) hold *rand.Rand instances, which are not
// safe for concurrent use. Machines themselves are fully independent —
// NewMachine builds every mutable component (memory, allocator, OS, MMU,
// page table, RNGs) privately from Config, deriving all randomness from
// Config.Seed — so the parallel experiment runner (internal/runner) may run
// any number of Machines on different goroutines concurrently. The one
// sharp edge is Config.MEHPTConfig: NewMachine copies the struct, and when
// its Rand field is nil (the normal case) each Machine creates its own RNG;
// callers must not set MEHPTConfig.Rand on a config shared across
// concurrent runs, since the copies would alias one generator.
package sim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/ecpt"
	"repro/internal/inject"
	"repro/internal/mehpt"
	"repro/internal/mmu"
	"repro/internal/osmodel"
	"repro/internal/phys"
	"repro/internal/radix"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Org selects the page-table organization.
type Org int

// Page-table organizations under comparison.
const (
	Radix Org = iota
	ECPT
	MEHPT
)

// String implements fmt.Stringer.
func (o Org) String() string {
	switch o {
	case Radix:
		return "Radix"
	case ECPT:
		return "ECPT"
	case MEHPT:
		return "ME-HPT"
	}
	return fmt.Sprintf("Org(%d)", int(o))
}

// DataMLP is the memory-level-parallelism factor applied to data accesses:
// the 256-entry OoO core (Table III) overlaps independent data misses, so a
// data access costs its hierarchy latency divided by this factor. Page-walk
// accesses are serially dependent and get no such discount — the paper's
// core argument for why multi-access radix walks hurt ("does not leverage
// the memory-level parallelism afforded by modern processors", Section I).
const DataMLP = 4

// ErrMemRange reports a physical memory size of 0 or past the
// addr.PhysBits-bit physical address space.
var ErrMemRange = errors.New("sim: memory size outside the physical address space")

// MemBytes returns gb gigabytes in bytes for Config.MemBytes, or an
// ErrMemRange if gb is 0 or they exceed the addr.PhysBits-bit physical
// address space (65536 GB). A MemBytes of 0 would make NewMachine run the
// default 64 GB while the caller reports 0. It compares before it
// multiplies, so no gb overflows into a small size.
func MemBytes(gb uint64) (uint64, error) {
	if gb == 0 {
		return 0, fmt.Errorf("%w: 0 GB", ErrMemRange)
	}
	if gb > 1<<addr.PhysBits/addr.GB {
		return 0, fmt.Errorf("%w: %d GB, at most %d GB in %d bits", ErrMemRange, gb, uint64(1<<addr.PhysBits/addr.GB), addr.PhysBits)
	}
	return gb * addr.GB, nil
}

// Config describes one simulation run.
type Config struct {
	Org      Org
	Workload workload.Spec
	THP      bool
	// Accesses is the number of memory references to simulate. The paper
	// measures 550M instructions/thread; at a typical ~1/3 memory-reference
	// density that is ~180M accesses at full scale.
	Accesses uint64
	Seed     int64
	// MemBytes is the machine's physical memory (Table III: 64GB).
	MemBytes uint64
	// FMFI is the ambient memory fragmentation (the paper evaluates at
	// 0.7). Memory is pre-fragmented to this level before the run.
	FMFI float64
	// FreeFraction is how much physical memory the fragmenter leaves free.
	FreeFraction float64
	// Populate pre-faults every touched page, in first-touch order, before
	// the timed trace (experiment drivers measuring only page-table state
	// set this and use Accesses = 0). Each page faults once: a second Run
	// resumes where the first one's populate stopped.
	Populate bool
	// MEHPTConfig optionally overrides the ME-HPT feature toggles
	// (ablations). Nil means the full design.
	MEHPTConfig *mehpt.Config
	// Inject is a fault-injection policy spec (see inject.Parse: "nth=N",
	// "rate=P", "pressure=F", "big=SIZE", joined by "+"). When non-empty,
	// the machine's allocator fails attempts per the policy; stateful
	// clauses are seeded from Seed so runs stay bit-identical per seed.
	Inject string
}

// Result is everything the experiments need from one run.
type Result struct {
	Org        Org
	Workload   string
	THP        bool
	Failed     bool // the run could not finish (allocation failure)
	FailReason string

	Cycles     uint64 // total simulated cycles
	Accesses   uint64
	DataCycles uint64 // data-access cache latency
	XlatCycles uint64 // translation latency (TLB + walks)
	OSCycles   uint64 // page-fault handling incl. allocation stalls

	MMU mmu.Stats
	OS  osmodel.Stats

	// InjectedFaults counts allocation attempts failed by the Inject policy
	// (zero when Inject is empty).
	InjectedFaults uint64

	// Page-table organization metrics.
	PTPeakBytes   uint64 // peak page-table memory (Table I, Figure 10)
	PTFinalBytes  uint64
	MaxContiguous uint64 // largest contiguous PT allocation (Figure 8)
	PTAllocCycles uint64
	PTMoves       uint64 // entries moved by resizes (rehash data movement)

	// Organization-specific handles for deep inspection (nil for others).
	MEHPT *mehpt.PageTable
	ECPT  *ecpt.PageTable
}

// PageTable is what a machine reads back from any organization's table.
type PageTable interface {
	osmodel.PageTable
	FootprintBytes() uint64
	PeakFootprintBytes() uint64
	MaxContiguousAlloc() uint64
	AllocCycles() uint64
	Moves() uint64
	Free()
}

// TableState is a page-table snapshot: the field of the table's
// organization is set.
type TableState struct {
	Radix *radix.State
	ECPT  *ecpt.PageTableState
	MEHPT *mehpt.PageTableState
}

// OpenTable builds org's page table over src, or restores it from st when
// st is non-nil. hashSeed seeds the hashed organizations' hash functions,
// and newRand, called only for them, supplies the source of the table's
// generator. mc, when non-nil, replaces the default ME-HPT configuration
// (ablations); a generator it carries is used instead of newRand's.
func OpenTable(org Org, src phys.Source, hashSeed uint64, newRand func() rand.Source,
	mc *mehpt.Config, st *TableState) (PageTable, error) {
	switch org {
	case Radix:
		if st == nil {
			return radix.NewPageTable(src)
		}
		if st.Radix == nil {
			return nil, errors.New("sim: snapshot carries no radix state")
		}
		return radix.Restore(*st.Radix, src)
	case ECPT:
		c := ecpt.DefaultConfig(hashSeed)
		c.Rand = rand.New(newRand())
		if st == nil {
			return ecpt.NewPageTable(src, c)
		}
		if st.ECPT == nil {
			return nil, errors.New("sim: snapshot carries no ECPT state")
		}
		return ecpt.RestorePageTable(src, c, *st.ECPT)
	case MEHPT:
		c := mehpt.DefaultConfig(hashSeed)
		if mc != nil {
			c = *mc
		}
		if c.Rand == nil {
			c.Rand = rand.New(newRand())
		}
		if st == nil {
			return mehpt.NewPageTable(src, c)
		}
		if st.MEHPT == nil {
			return nil, errors.New("sim: snapshot carries no ME-HPT state")
		}
		return mehpt.RestorePageTable(src, c, *st.MEHPT)
	}
	return nil, fmt.Errorf("sim: unknown organization %v", org)
}

// NewMMU returns an MMU that walks org's tables over the data caches mem.
// A nil table leaves it unbound.
func NewMMU(org Org, table PageTable, mem *cache.Hierarchy) *mmu.MMU {
	if org == Radix {
		t, _ := table.(*radix.PageTable)
		return mmu.NewRadix(t, mem)
	}
	t, _ := table.(mmu.HPTPageTable)
	return mmu.NewHPT(t, mem)
}

// Machine is one wired-up simulated system.
type Machine struct {
	cfg      Config
	mem      *phys.Memory
	alloc    *phys.Allocator
	table    PageTable
	injector *inject.Injector // nil unless Config.Inject is set
	// eng is the access loop over the machine's MMU, data caches, and OS.
	eng Engine
	// populated counts the touched pages, in first-touch order, that
	// populate has mapped; the next populate resumes after them.
	populated uint64
	// popFaults is the OS fault count when populate last stopped. A
	// different count at the next populate means a trace run has faulted
	// pages in since, which may include touched pages past populated.
	popFaults uint64
	// Trace-decode scratch, allocated once with the machine: the buffer
	// crosses the vaSource interface boundary, so as a local it would
	// escape to the heap on every Run* call. A machine runs one trace
	// loop at a time, so sharing it is safe.
	// Not in the snapshot: per-batch scratch, dead between NextBatch calls
	vaBuf [mmu.BatchWidth]addr.VirtAddr
}

// NewMachine builds the machine for cfg, pre-fragmenting memory.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 64 * addr.GB
	}
	if cfg.FreeFraction == 0 {
		cfg.FreeFraction = 0.35
	}
	mem := phys.NewMemory(cfg.MemBytes)
	if cfg.FMFI > 0 {
		fr := phys.NewFragmenter(mem)
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		refOrder := phys.OrderFor(64 * addr.MB)
		if err := fr.Fragment(cfg.FMFI, cfg.FreeFraction, refOrder, rng); err != nil {
			return nil, fmt.Errorf("sim: fragmenting memory: %w", err)
		}
		mem.ResetStats()
	}
	alloc := phys.NewAllocator(mem, cfg.FMFI)
	m := &Machine{cfg: cfg, mem: mem, alloc: alloc}
	m.eng.Cache = cache.NewHierarchy(cache.TableIII())
	if cfg.Inject != "" {
		// The policy is attached after fragmentation, so the fragmenter's
		// own blocker allocations are never injected; its seed is derived
		// from the job seed (offset 3 — the fragmenter uses 1, the table
		// RNG 2) so the failure stream is private to this machine.
		policy, err := inject.Parse(cfg.Inject, cfg.Seed+3)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		m.injector = inject.Attach(alloc, policy)
	}

	seed := uint64(cfg.Seed)*2654435761 + 12345
	newRand := func() rand.Source { return rand.NewSource(cfg.Seed + 2) }
	table, err := OpenTable(cfg.Org, alloc, seed, newRand, cfg.MEHPTConfig, nil)
	if err != nil {
		return nil, err
	}
	m.table = table
	m.eng.MMU = NewMMU(cfg.Org, table, m.eng.Cache)

	m.eng.OS = osmodel.New(cfg.osConfig(), m.table, alloc)
	return m, nil
}

// osConfig is the OS model of cfg's machine: THP as configured, over the
// workload's THP-eligible fraction.
func (cfg Config) osConfig() osmodel.Config {
	osCfg := osmodel.DefaultConfig()
	osCfg.THP = cfg.THP
	osCfg.THPFraction = cfg.Workload.THPFraction
	return osCfg
}

// Run executes the configured simulation and returns its results.
func Run(cfg Config) Result {
	m, err := NewMachine(cfg)
	if err != nil {
		return Result{Org: cfg.Org, Workload: cfg.Workload.Name, THP: cfg.THP,
			Failed: true, FailReason: err.Error()}
	}
	return m.Run()
}

// Run executes the trace on an already-built machine. With
// Config.Populate it first faults in the touched pages; a populate that an
// allocation failure stopped fails the run, and the next Run resumes it at
// the page that failed. Populate never faults a page that is mapped.
func (m *Machine) Run() Result {
	res := Result{Org: m.cfg.Org, Workload: m.cfg.Workload.Name, THP: m.cfg.THP}

	if m.cfg.Populate {
		if err := m.populate(&res); err != nil {
			res.Failed = true
			res.FailReason = err.Error()
			m.finish(&res)
			return res
		}
	}

	tr := m.cfg.Workload.NewTrace(m.cfg.Seed+7, m.cfg.Accesses)
	m.runSource(tr, &res)
	m.finish(&res)
	return res
}

// populate faults in the touched pages after the ones an earlier populate
// mapped, adding the fault cycles to res, and stops at the first fault
// that fails. Without THP a page past the resume point cannot be mapped
// yet: the OS maps only the 4KB page that faulted, and TouchedPageVAs
// yields each page once. So populate probes the table first only under
// THP, where an earlier 2MB fault covers later pages of its region, or
// when a trace run has faulted pages in since populate last ran.
func (m *Machine) populate(res *Result) error {
	check := m.cfg.THP || m.eng.OS.Stats().Faults != m.popFaults
	var err error
	var i uint64
	m.cfg.Workload.TouchedPageVAs(func(va addr.VirtAddr) bool {
		i++
		if i <= m.populated {
			return true
		}
		if check {
			if _, ok := m.table.Translate(va); ok {
				m.populated = i
				return true
			}
		}
		cycles, ferr := m.eng.OS.HandleFault(va)
		res.OSCycles += cycles
		if ferr != nil {
			err = ferr
			return false
		}
		m.populated = i
		return true
	})
	m.popFaults = m.eng.OS.Stats().Faults
	return err
}

// vaSource feeds the trace loops a batch of virtual addresses at a time;
// a short (including zero) fill ends the run. workload.Trace satisfies it
// directly; funcSource and streamSource adapt the other producers.
type vaSource interface {
	NextBatch(out []addr.VirtAddr) int
}

// runSource drives src through the engine a batch at a time.
func (m *Machine) runSource(src vaSource, res *Result) {
	for {
		n := src.NextBatch(m.vaBuf[:])
		if n == 0 || !m.runVAs(m.vaBuf[:n], res) {
			return
		}
	}
}

// runVAs runs vas through the engine, adding their cost to res, and
// reports whether the run may go on. A reference that cannot complete
// fails res; unlike the tenant driver, the simulator counts it.
func (m *Machine) runVAs(vas []addr.VirtAddr, res *Result) bool {
	var t Tally
	err := m.eng.Run(vas, &t)
	if err != nil {
		t.Accesses++
		res.Failed, res.FailReason = true, err.Error()
	}
	res.Accesses += t.Accesses
	res.XlatCycles += t.XlatCycles
	res.DataCycles += t.DataCycles
	res.OSCycles += t.OSCycles
	return err == nil
}

func (m *Machine) finish(res *Result) {
	res.Cycles = res.DataCycles + res.XlatCycles + res.OSCycles
	if m.injector != nil {
		res.InjectedFaults = m.injector.Stats().Injected
	}
	res.MMU = m.eng.MMU.Stats()
	res.OS = m.eng.OS.Stats()
	res.PTPeakBytes = m.table.PeakFootprintBytes()
	res.PTFinalBytes = m.table.FootprintBytes()
	res.MaxContiguous = m.table.MaxContiguousAlloc()
	res.PTAllocCycles = m.table.AllocCycles()
	res.PTMoves = m.table.Moves()
	switch t := m.table.(type) {
	case *mehpt.PageTable:
		res.MEHPT = t
	case *ecpt.PageTable:
		res.ECPT = t
	}
}

// RunAddresses drives an arbitrary address stream through the machine:
// each emit is one memory reference (translation, fault handling, data
// access). It powers algorithm-driven traces (internal/graph kernels) as
// opposed to the statistical workload traces. Emits are buffered and run
// through the engine a buffer at a time, so gen must not depend on their
// outcome; emits after the reference that failed the run are dropped.
func (m *Machine) RunAddresses(gen func(emit func(va addr.VirtAddr))) Result {
	res := Result{Org: m.cfg.Org, Workload: "stream", THP: m.cfg.THP}
	n := 0
	gen(func(va addr.VirtAddr) {
		if res.Failed {
			return
		}
		m.vaBuf[n] = va
		if n++; n == len(m.vaBuf) {
			m.runVAs(m.vaBuf[:], &res)
			n = 0
		}
	})
	if !res.Failed {
		m.runVAs(m.vaBuf[:n], &res)
	}
	m.finish(&res)
	return res
}

// funcSource adapts a plain fill callback to vaSource.
type funcSource func(out []addr.VirtAddr) int

func (f funcSource) NextBatch(out []addr.VirtAddr) int {
	return f(out)
}

// RunBatches drives the machine from a batch producer: next fills the
// buffer it is handed and returns how many addresses it produced; a short
// (including zero) fill ends the run. This is the pull counterpart of
// RunAddresses' push stream, with the same access semantics.
func (m *Machine) RunBatches(next func(out []addr.VirtAddr) int) Result {
	res := Result{Org: m.cfg.Org, Workload: "stream", THP: m.cfg.THP}
	m.runSource(funcSource(next), &res)
	m.finish(&res)
	return res
}

// streamSource adapts a trace.Stream to vaSource, stashing the terminal
// error (anything but clean io.EOF) for RunStream to report.
type streamSource struct {
	s trace.Stream
	// Not in the snapshot: replay error latch, only meaningful within one RunStream call
	err error
}

func (s *streamSource) NextBatch(out []addr.VirtAddr) int {
	n, err := s.s.NextBatch(out)
	if err != nil && err != io.EOF {
		s.err = err
	}
	return n
}

// RunStream replays a recorded trace (either format; see trace.OpenStream)
// through the machine. The returned error is nil for a cleanly-terminated
// trace; a decode failure ends the run early and is returned alongside the
// results accumulated up to that point.
func (m *Machine) RunStream(src trace.Stream) (Result, error) {
	res := Result{Org: m.cfg.Org, Workload: "stream", THP: m.cfg.THP}
	ss := &streamSource{s: src}
	m.runSource(ss, &res)
	m.finish(&res)
	return res, ss.err
}

// Table returns the machine's page table (for experiment inspection before
// running).
func (m *Machine) Table() osmodel.PageTable { return m.table }

// SetAmbientFMFI overrides the fragmentation level used to *price*
// allocations without physically shredding memory. Experiment drivers use
// it so a pristine buddy allocator still charges the paper's 0.7-FMFI
// costs.
func (m *Machine) SetAmbientFMFI(f float64) { m.alloc.AmbientFMFI = f }
