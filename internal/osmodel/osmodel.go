// Package osmodel is the operating-system layer of the simulation: demand
// paging, data-frame allocation, and the transparent-huge-page policy. It
// is deliberately small — the paper's OS involvement is page-fault handling
// and page-table maintenance, both of which it prices in cycles.
package osmodel

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/phys"
	"repro/internal/pt"
)

// PressureError is the typed error the OS model surfaces when a fault
// cannot be serviced because of memory pressure: the data-frame allocation
// or the page-table mapping failed after every degradation rung (huge-page
// fallback, resize deferral, software stash). The wrapped chain reaches
// phys.ErrOutOfMemory — use errors.As to recover the fault context and
// errors.Is(err, phys.ErrOutOfMemory) to test the cause.
type PressureError struct {
	VA  addr.VirtAddr // faulting virtual address
	Op  string        // "data-alloc" or "pt-map"
	Err error         // underlying cause chain
}

func (e *PressureError) Error() string {
	return fmt.Sprintf("osmodel: fault at %#x: %s: %v", uint64(e.VA), e.Op, e.Err)
}

func (e *PressureError) Unwrap() error { return e.Err }

// opError tags mapPage failures with the failing operation so HandleFault
// can build the PressureError without string matching.
type opError struct {
	op  string
	err error
}

func (e *opError) Error() string { return e.op + ": " + e.err.Error() }

func (e *opError) Unwrap() error { return e.err }

// PageTable is the mapping interface all three organizations provide.
type PageTable interface {
	Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error)
	Unmap(vpn addr.VPN, s addr.PageSize) (uint64, bool)
	Translate(va addr.VirtAddr) (pt.Translation, bool)
}

// Config parameterizes the OS model.
type Config struct {
	// THP enables transparent huge pages: eligible 2MB regions are mapped
	// with a single 2MB page on first touch.
	THP bool
	// THPFraction is the fraction of 2MB regions that are THP-eligible,
	// a workload property (irregular allocators defeat THP; see Table I
	// where graph applications see no page-table change under THP).
	THPFraction float64
	// FaultOverhead is the fixed kernel entry/exit + fault bookkeeping
	// cost in cycles, charged per page fault.
	FaultOverhead uint64
}

// DefaultConfig returns a reasonable OS cost model.
func DefaultConfig() Config {
	return Config{FaultOverhead: 1000}
}

// Stats aggregates OS activity.
type Stats struct {
	Faults          uint64
	HugeFaults      uint64
	FaultCycles     uint64 // total cycles spent in fault handling
	DataAllocCycles uint64
	PTCycles        uint64 // page-table maintenance cycles (allocs, moves)
}

// OS models one process's kernel interaction.
type OS struct {
	cfg   Config
	pt    PageTable
	alloc phys.Source
	stats Stats
}

// New creates the OS layer for one process.
func New(cfg Config, table PageTable, alloc phys.Source) *OS {
	return &OS{cfg: cfg, pt: table, alloc: alloc}
}

// Stats returns OS counters.
func (o *OS) Stats() Stats { return o.stats }

// hugeEligible deterministically decides whether the 2MB region containing
// va is THP-eligible, using a hash so eligibility is stable per region and
// the configured fraction holds in aggregate.
func (o *OS) hugeEligible(region uint64) bool {
	if !o.cfg.THP || o.cfg.THPFraction <= 0 {
		return false
	}
	if o.cfg.THPFraction >= 1 {
		return true
	}
	h := region * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return float64(h%1024)/1024 < o.cfg.THPFraction
}

// HandleFault services a page fault at va: it allocates a data frame (2MB
// when the region is THP-eligible, 4KB otherwise), installs the mapping,
// and returns the total fault cost in cycles.
func (o *OS) HandleFault(va addr.VirtAddr) (uint64, error) {
	o.stats.Faults++
	cycles := o.cfg.FaultOverhead

	if o.hugeEligible(uint64(va) >> addr.Page2M.Shift()) {
		c, err := o.mapPage(va, addr.Page2M)
		cycles += c
		if err == nil {
			o.stats.HugeFaults++
			o.stats.FaultCycles += cycles
			return cycles, nil
		}
		// Huge allocation failed (fragmentation): fall back to a base page,
		// as Linux THP does.
	}
	c, err := o.mapPage(va, addr.Page4K)
	cycles += c
	o.stats.FaultCycles += cycles
	if err != nil {
		op := "map"
		var oe *opError
		if errors.As(err, &oe) {
			// Lift the tag into the PressureError and wrap the tag's cause
			// directly so the op is not printed twice.
			op, err = oe.op, oe.err
		}
		return cycles, &PressureError{VA: va, Op: op, Err: err}
	}
	return cycles, nil
}

func (o *OS) mapPage(va addr.VirtAddr, s addr.PageSize) (uint64, error) {
	frame, allocCycles, err := o.alloc.Alloc(s.Bytes())
	o.stats.DataAllocCycles += allocCycles
	cycles := allocCycles
	if err != nil {
		return cycles, &opError{op: "data-alloc", err: err}
	}
	// The buddy allocator hands out 4KB-frame numbers; convert to a frame
	// number at the mapping's page size.
	ppn := frame.Addr(addr.Page4K).PageNumber(s)
	ptCycles, err := o.pt.Map(va.PageNumber(s), s, ppn)
	o.stats.PTCycles += ptCycles
	cycles += ptCycles
	if err != nil {
		o.alloc.Free(frame, s.Bytes())
		return cycles, &opError{op: "pt-map", err: err}
	}
	return cycles, nil
}
