package phys

import (
	"math"

	"repro/internal/addr"
)

// CostModel converts a contiguous-allocation request into a cycle cost,
// reproducing the paper's real-system measurements (Section III): at 2GHz
// and 0.7 FMFI, allocating and zeroing 4KB, 8KB, 1MB, 8MB, and 64MB chunks
// takes 4K, 5K, 750K, 13M, and 120M cycles respectively. Costs for other
// sizes are log-log interpolated between the anchors; costs at other
// fragmentation levels scale the fragmentation-dependent component.
type CostModel struct {
	// FMFI is the fragmentation level at which anchor costs apply exactly.
	// The paper's measurements were taken at 0.7.
	FMFI float64
}

// DefaultCostModel is the paper's measurement configuration.
var DefaultCostModel = CostModel{FMFI: 0.7}

// anchor points: size in bytes -> cycles at the reference FMFI.
var costAnchors = []struct {
	size   uint64
	cycles float64
}{
	{4 * addr.KB, 4_000},
	{8 * addr.KB, 5_000},
	{1 * addr.MB, 750_000},
	{8 * addr.MB, 13_000_000},
	{64 * addr.MB, 120_000_000},
}

// baseCycles is the fragmentation-independent floor: a fixed page-allocator
// overhead plus zeroing at one cache line (64B) per cycle.
func baseCycles(size uint64) float64 {
	return 1_000 + float64(size)/64
}

// anchorCycles returns the measured (or log-log inter/extrapolated) cost of
// allocating size bytes at the reference fragmentation.
func anchorCycles(size uint64) float64 {
	a := costAnchors
	if size <= a[0].size {
		return a[0].cycles * float64(size) / float64(a[0].size)
	}
	for i := 1; i < len(a); i++ {
		if size <= a[i].size {
			return loglog(size, a[i-1].size, a[i-1].cycles, a[i].size, a[i].cycles)
		}
	}
	last, prev := a[len(a)-1], a[len(a)-2]
	return loglog(size, prev.size, prev.cycles, last.size, last.cycles)
}

// loglog interpolates (and extrapolates) on log-log axes between
// (x0,y0)-(x1,y1).
func loglog(x, x0 uint64, y0 float64, x1 uint64, y1 float64) float64 {
	lx := math.Log(float64(x))
	l0, l1 := math.Log(float64(x0)), math.Log(float64(x1))
	ly := math.Log(y0) + (math.Log(y1)-math.Log(y0))*(lx-l0)/(l1-l0)
	return math.Exp(ly)
}

// Cycles returns the cost in cycles of allocating and zeroing a contiguous
// block of the given size under fragmentation fmfi in [0,1).
//
// The fragmentation-dependent component (compaction, reclaim, free-list
// search) scales super-linearly in fmfi and vanishes as fmfi goes to 0; the
// zeroing floor always remains.
func (c CostModel) Cycles(size uint64, fmfi float64) uint64 {
	ref := c.FMFI
	if ref <= 0 {
		ref = 0.7
	}
	base := baseCycles(size)
	fragAtRef := anchorCycles(size) - base
	if fragAtRef < 0 {
		fragAtRef = 0
	}
	if fmfi < 0 {
		fmfi = 0
	}
	scale := math.Pow(fmfi/ref, 4)
	return uint64(base + fragAtRef*scale)
}

// AllocRequest describes one contiguous-allocation attempt, as seen by an
// AllocHook before the buddy allocator is consulted.
type AllocRequest struct {
	Size  uint64 // requested bytes, pre-rounding
	Order int    // buddy order that will serve the request
	Seq   uint64 // 1-based index of this attempt on the allocator
	// FreeBytes and TotalBytes snapshot the buddy state at request time, so
	// pressure-threshold policies can act on actual memory conditions.
	FreeBytes  uint64
	TotalBytes uint64
}

// AllocHook can veto an allocation attempt before it reaches the buddy
// allocator. A non-nil return fails the allocation with that error; the
// attempt is still charged its search cost and counted as a failed alloc,
// exactly like a genuine out-of-memory condition. Fault-injection
// (internal/inject) installs hooks here; errors returned should wrap
// ErrOutOfMemory so callers' degradation paths treat injected and genuine
// failures identically.
type AllocHook func(AllocRequest) error

// Source is the costed allocation interface the OS model, the page tables,
// and the chunk stores consume. *Allocator is the reference implementation
// over one Memory; *StripedView is the per-owner handle onto a Striped
// multi-tenant allocator. Consumers depend on this interface so a page
// table is indifferent to whether its frames come from a private machine
// or a shared, striped pool.
type Source interface {
	// Alloc allocates a contiguous block of at least size bytes, returning
	// the first frame and the cycle cost. A failed attempt still returns its
	// search cost.
	Alloc(size uint64) (addr.PPN, uint64, error)
	// AllocRollback is Alloc for rollback paths; it bypasses any fault-
	// injection hook (see Allocator.AllocRollback).
	AllocRollback(size uint64) (addr.PPN, uint64, error)
	// Free returns a block of the given byte size starting at ppn.
	Free(ppn addr.PPN, size uint64)
}

// Allocator couples a Memory with a CostModel and a fragmentation level,
// providing the costed allocation interface the page tables use. The
// fragmentation level used for costing is the ambient machine fragmentation
// (the paper runs everything at 0.7 FMFI); availability is decided by the
// actual buddy state.
type Allocator struct {
	Mem   *Memory
	Model CostModel
	// AmbientFMFI is the fragmentation level used for pricing allocations.
	AmbientFMFI float64
	// Hook, if non-nil, is consulted before every Alloc attempt (but not
	// AllocRollback: rollback re-acquisitions must always succeed so failed
	// resizes can restore their old geometry).
	Hook AllocHook

	seq uint64 // allocation attempts issued, for AllocRequest.Seq
}

// NewAllocator returns a costed allocator over mem at the given ambient
// fragmentation with the default (paper-measured) cost model.
func NewAllocator(mem *Memory, ambientFMFI float64) *Allocator {
	return &Allocator{Mem: mem, Model: DefaultCostModel, AmbientFMFI: ambientFMFI}
}

// Alloc allocates a contiguous block of at least size bytes and returns its
// first frame plus the cycle cost of the allocation. On failure the cost of
// the failed attempt is still returned (the OS did the work of searching).
func (a *Allocator) Alloc(size uint64) (addr.PPN, uint64, error) {
	order := OrderFor(size)
	cycles := a.Model.Cycles(BlockBytes(order), a.AmbientFMFI)
	a.seq++
	if a.Hook != nil {
		if err := a.Hook(AllocRequest{
			Size:       size,
			Order:      order,
			Seq:        a.seq,
			FreeBytes:  a.Mem.FreeBytes(),
			TotalBytes: a.Mem.TotalBytes(),
		}); err != nil {
			a.Mem.noteFailedAlloc()
			return 0, cycles, err
		}
	}
	ppn, err := a.Mem.AllocOrder(order)
	if err != nil {
		return 0, cycles, err
	}
	a.Mem.chargeAlloc(cycles)
	return ppn, cycles, nil
}

// AllocRollback is Alloc for rollback paths: re-acquiring memory that a
// failed resize or transition just released in order to restore the old
// geometry. It bypasses the Hook — the memory was freed moments ago by the
// caller, so the buddy allocator can always satisfy it, and fault injection
// must not be able to strand a rollback halfway (a failed upsize must leave
// the table valid at its old geometry, unconditionally).
func (a *Allocator) AllocRollback(size uint64) (addr.PPN, uint64, error) {
	order := OrderFor(size)
	cycles := a.Model.Cycles(BlockBytes(order), a.AmbientFMFI)
	ppn, err := a.Mem.AllocOrder(order)
	if err != nil {
		return 0, cycles, err
	}
	a.Mem.chargeAlloc(cycles)
	return ppn, cycles, nil
}

// Free returns a block of the given byte size starting at ppn.
func (a *Allocator) Free(ppn addr.PPN, size uint64) {
	a.Mem.Free(ppn, OrderFor(size))
}
