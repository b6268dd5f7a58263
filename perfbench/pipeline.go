package main

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/ecpt"
	"repro/internal/mehpt"
	"repro/internal/mmu"
	"repro/internal/osmodel"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/radix"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The traced run rebuilds sim.Machine's pipeline from the layers' public
// constructors, with thin timing decorators on the three public seams
// (phys.Source, osmodel.PageTable, mmu.HPTPageTable), and drives it with the
// same loop shape as sim's batched loop. Its simulated outcome must equal
// sim.Machine's for the same config; the traced run checks that, so a change to
// sim's wiring shows up as invalid per-layer numbers rather than as wrong
// ones.

// timedSource decorates a phys.Source, timing every call.
type timedSource struct {
	inner  phys.Source
	tr     *tracer
	allocs uint64 // Alloc and AllocRollback calls
	failed uint64
	cycles uint64 // cycles charged by successful allocations
}

func (s *timedSource) Alloc(size uint64) (addr.PPN, uint64, error) {
	s.tr.begin(spAlloc)
	ppn, c, err := s.inner.Alloc(size)
	s.tr.end()
	s.note(c, err)
	return ppn, c, err
}

func (s *timedSource) AllocRollback(size uint64) (addr.PPN, uint64, error) {
	s.tr.begin(spAlloc)
	ppn, c, err := s.inner.AllocRollback(size)
	s.tr.end()
	s.note(c, err)
	return ppn, c, err
}

func (s *timedSource) note(cycles uint64, err error) {
	s.allocs++
	if err != nil {
		s.failed++
		return
	}
	s.cycles += cycles
}

func (s *timedSource) Free(ppn addr.PPN, size uint64) {
	s.tr.begin(spFree)
	s.inner.Free(ppn, size)
	s.tr.end()
}

// timedMapper decorates an osmodel.PageTable, timing Map.
type timedMapper struct {
	osmodel.PageTable
	tr   *tracer
	span span
}

func (m *timedMapper) Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error) {
	m.tr.begin(m.span)
	c, err := m.PageTable.Map(vpn, s, ppn)
	m.tr.end()
	return c, err
}

// timedWalker decorates an mmu.HPTPageTable, timing the fused Walk the MMU
// issues on every full TLB miss.
type timedWalker struct {
	mmu.HPTPageTable
	tr   *tracer
	span span
}

func (w *timedWalker) Walk(va addr.VirtAddr) (pt.Translation, addr.PhysAddr, bool) {
	w.tr.begin(w.span)
	tr, pa, ok := w.HPTPageTable.Walk(va)
	w.tr.end()
	return tr, pa, ok
}

// batchMMU is the part of mmu.HPT and mmu.Radix the access loop drives.
type batchMMU interface {
	TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64)
	TranslateWalk(va addr.VirtAddr, missLat uint64) mmu.Result
	Translate(va addr.VirtAddr) mmu.Result
	Stats() mmu.Stats
}

// pageTable is what the pipeline reads back from any organization's table.
type pageTable interface {
	osmodel.PageTable
	FootprintBytes() uint64
	PeakFootprintBytes() uint64
	MaxContiguousAlloc() uint64
	AllocCycles() uint64
	Moves() uint64
}

// pipeline is one organization's machine, wired like sim.NewMachine.
type pipeline struct {
	spec  workload.Spec
	table pageTable
	mmu   batchMMU
	cache *cache.Hierarchy
	os    *osmodel.OS
	src   *timedSource // nil when untraced
	tr    *tracer
}

// newPipeline wires cfg's machine as sim.NewMachine followed by
// SetAmbientFMFI(ambient) does. A nil tracer builds it undecorated. Only
// the configs the benchmark uses are supported: no physical fragmentation,
// no THP, no injection, the default ME-HPT config.
func newPipeline(cfg sim.Config, ambient float64, tr *tracer) (*pipeline, error) {
	if cfg.FMFI != 0 || cfg.THP || cfg.Inject != "" || cfg.MEHPTConfig != nil {
		return nil, fmt.Errorf("pipeline: unsupported config %+v", cfg)
	}
	mem := cfg.MemBytes
	if mem == 0 {
		mem = 64 * addr.GB
	}
	// Construction-time allocations are priced at cfg.FMFI, as in
	// sim.NewMachine; the ambient level applies from then on.
	alloc := phys.NewAllocator(phys.NewMemory(mem), cfg.FMFI)
	p := &pipeline{spec: cfg.Workload, tr: tr,
		cache: cache.NewHierarchy(cache.TableIII())}
	var src phys.Source = alloc
	if tr != nil {
		p.src = &timedSource{inner: alloc, tr: tr}
		src = p.src
	}
	// Hash seed and table RNG follow sim.NewMachine's derivation.
	seed := uint64(cfg.Seed)*2654435761 + 12345
	var mapSpan span
	switch cfg.Org {
	case sim.Radix:
		t, err := radix.NewPageTable(src)
		if err != nil {
			return nil, err
		}
		p.table, p.mmu, mapSpan = t, mmu.NewRadix(t, p.cache), spMapRadix
	case sim.ECPT:
		c := ecpt.DefaultConfig(seed)
		c.Rand = rand.New(rand.NewSource(cfg.Seed + 2))
		t, err := ecpt.NewPageTable(src, c)
		if err != nil {
			return nil, err
		}
		p.table, p.mmu, mapSpan = t, mmu.NewHPT(p.walker(t, spWalkECPT), p.cache), spMapECPT
	case sim.MEHPT:
		c := mehpt.DefaultConfig(seed)
		c.Rand = rand.New(rand.NewSource(cfg.Seed + 2))
		t, err := mehpt.NewPageTable(src, c)
		if err != nil {
			return nil, err
		}
		p.table, p.mmu, mapSpan = t, mmu.NewHPT(p.walker(t, spWalkMEHPT), p.cache), spMapMEHPT
	default:
		return nil, fmt.Errorf("pipeline: unknown organization %v", cfg.Org)
	}
	var mapper osmodel.PageTable = p.table
	if tr != nil {
		mapper = &timedMapper{PageTable: p.table, tr: tr, span: mapSpan}
	}
	osCfg := osmodel.DefaultConfig()
	osCfg.THPFraction = cfg.Workload.THPFraction
	p.os = osmodel.New(osCfg, mapper, src)
	alloc.AmbientFMFI = ambient
	return p, nil
}

func (p *pipeline) walker(t mmu.HPTPageTable, s span) mmu.HPTPageTable {
	if p.tr == nil {
		return t
	}
	return &timedWalker{HPTPageTable: t, tr: p.tr, span: s}
}

// populate pre-faults every touched page, as sim.Machine.Run does with
// Config.Populate, and returns the fault cycles.
func (p *pipeline) populate(root span) (uint64, error) {
	var cycles uint64
	var err error
	i := 0
	p.tr.begin(root)
	p.spec.TouchedPageVAs(func(va addr.VirtAddr) bool {
		p.tr.sample(i%sampleEvery == 0)
		i++
		if _, ok := p.table.Translate(va); ok {
			return true
		}
		p.tr.begin(spFault)
		c, ferr := p.os.HandleFault(va)
		p.tr.end()
		cycles += c
		err = ferr
		return ferr == nil
	})
	p.tr.end()
	return cycles, err
}

// sampleEvery keeps the spans of one in this many loop iterations (batches
// in the access loop, pages in populate); every call is still aggregated.
const sampleEvery = 64

// run drives the access loop over next until it returns 0, mirroring sim's
// batched loop call for call. It returns the data, translation and fault
// cycles and the references completed.
func (p *pipeline) run(next func([]addr.VirtAddr) (int, error), srcSpan span) (outcome, error) {
	var o outcome
	var vaBuf [mmu.BatchWidth]addr.VirtAddr
	var paBuf [mmu.BatchWidth]addr.PhysAddr
	var latBuf [mmu.BatchWidth]uint64
	p.tr.begin(spLoop)
	defer p.tr.end()
	for iter := 0; ; iter++ {
		p.tr.sample(iter%sampleEvery == 0)
		p.tr.begin(srcSpan)
		n, err := next(vaBuf[:])
		p.tr.end()
		if err != nil {
			return o, err
		}
		if n == 0 {
			return o, nil
		}
		batch := vaBuf[:n]
		for len(batch) > 0 {
			p.tr.begin(spMMUBatch)
			done, latSum, missLat := p.mmu.TranslateBatchPAs(batch, paBuf[:])
			p.tr.end()
			o.batchCalls++
			o.xlat += latSum
			if done > 0 {
				o.accesses += uint64(done)
				p.tr.begin(spCacheBatch)
				p.cache.AccessBatch(paBuf[:done], latBuf[:done])
				p.tr.end()
				for _, l := range latBuf[:done] {
					o.data += l / sim.DataMLP
				}
			}
			if done == len(batch) {
				break
			}
			va := batch[done]
			o.accesses++
			p.tr.begin(spMMUWalk)
			r := p.mmu.TranslateWalk(va, missLat)
			p.tr.end()
			o.xlat += r.Cycles
			if r.Fault {
				p.tr.begin(spFault)
				c, err := p.os.HandleFault(va)
				p.tr.end()
				o.os += c
				if err != nil {
					return o, err
				}
				p.tr.begin(spMMUTranslate)
				r = p.mmu.Translate(va)
				p.tr.end()
				o.xlat += r.Cycles
				if r.Fault {
					return o, fmt.Errorf("pipeline: fault persisted at %#x", uint64(va))
				}
			}
			p.tr.begin(spCacheAccess)
			o.data += p.cache.Access(r.PA) / sim.DataMLP
			p.tr.end()
			batch = batch[done+1:]
		}
	}
}

// outcome is what one phase of the loop accumulated.
type outcome struct {
	accesses, data, xlat, os uint64
	batchCalls               uint64
}

// result is sim.Result's projection onto its simulated values, in the form
// sim.Machine's finish step would report for a phase with outcome o.
func (p *pipeline) result(o outcome) simOutcome {
	return simOutcome{
		Cycles: o.data + o.xlat + o.os, Accesses: o.accesses,
		DataCycles: o.data, XlatCycles: o.xlat, OSCycles: o.os,
		MMU: p.mmu.Stats(), OS: p.os.Stats(),
		PTPeakBytes: p.table.PeakFootprintBytes(), PTFinalBytes: p.table.FootprintBytes(),
		MaxContiguous: p.table.MaxContiguousAlloc(), PTAllocCycles: p.table.AllocCycles(),
		PTMoves: p.table.Moves(),
	}
}

// simOutcome is every simulated (deterministic) value of a sim.Result: the
// fields the determinism and traced-equals-untraced checks compare.
type simOutcome struct {
	Failed                                             bool
	Cycles, Accesses, DataCycles, XlatCycles, OSCycles uint64
	MMU                                                mmu.Stats
	OS                                                 osmodel.Stats
	PTPeakBytes, PTFinalBytes, MaxContiguous           uint64
	PTAllocCycles, PTMoves                             uint64
}

func outcomeOf(r sim.Result) simOutcome {
	return simOutcome{
		Failed: r.Failed, Cycles: r.Cycles, Accesses: r.Accesses,
		DataCycles: r.DataCycles, XlatCycles: r.XlatCycles, OSCycles: r.OSCycles,
		MMU: r.MMU, OS: r.OS,
		PTPeakBytes: r.PTPeakBytes, PTFinalBytes: r.PTFinalBytes,
		MaxContiguous: r.MaxContiguous, PTAllocCycles: r.PTAllocCycles, PTMoves: r.PTMoves,
	}
}
