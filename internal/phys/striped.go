package phys

import (
	"fmt"

	"repro/internal/addr"
)

// Striped is a shared physical allocator for the multi-tenant simulation:
// one machine-wide frame pool partitioned into K stripes, each a private
// buddy Memory over a contiguous slice of the frame space. Each tenant
// allocates from its home stripe first and overflows to the next stripe
// only when the home stripe cannot grant the order.
//
// Frame numbering: stripe i owns global frames [i*stripeFrames,
// (i+1)*stripeFrames); a block allocated locally at frame f maps to global
// PPN i*stripeFrames+f, and Free routes back by division. stripeFrames is
// always a multiple of 512 frames (2MB), so a 2MB-aligned local block stays
// 2MB-aligned globally and THP data mappings remain valid. 1GB mappings are
// not supported through Striped.
//
// Determinism: a pool is owned by one machine, which issues its
// allocations sequentially, so every quantity a request observes (home
// stripe, probe order, Seq, FreeBytes) is a pure function of the
// allocation history, and striped runs are bit-identical to themselves at
// any simulated core count.
type Striped struct {
	stripes      []*Memory
	stripeFrames uint64
	// Not in the snapshot: always DefaultCostModel; RestoreStriped reinstates the constant
	model CostModel

	// AmbientFMFI is the fragmentation level used for pricing allocations,
	// mirroring Allocator.AmbientFMFI.
	// Not in the snapshot: configuration; RestoreStriped takes it as an argument
	AmbientFMFI float64

	// Hook, if non-nil, is consulted before every Alloc attempt on any
	// stripe (but not AllocRollback), like Allocator.Hook.
	// Not in the snapshot: injection policy, serialized separately by its owner and re-attached after restore (see StripedState)
	Hook AllocHook

	// Not in the snapshot: derived counter; RestoreStriped recomputes it from the restored stripes' free bytes
	free uint64 // global free bytes, maintained on alloc/free
	seq  uint64 // allocation attempts issued, for AllocRequest.Seq
}

// stripeAlign keeps every stripe a whole number of 2MB regions so global
// frame numbers preserve huge-page alignment.
const stripeAlign = (2 * addr.MB) / FrameBytes

// NewStriped partitions capacityBytes across k stripes at the given ambient
// fragmentation. Capacity not divisible into 2MB-aligned stripes is left
// unused (at most 2MB per stripe).
func NewStriped(capacityBytes uint64, k int, ambientFMFI float64) *Striped {
	if k <= 0 {
		k = 1
	}
	frames := capacityBytes / FrameBytes / uint64(k)
	frames -= frames % stripeAlign
	if frames == 0 {
		panic(fmt.Sprintf("phys: %d stripes over %d bytes leaves stripes under 2MB",
			k, capacityBytes))
	}
	s := &Striped{
		stripes:      make([]*Memory, k),
		stripeFrames: frames,
		model:        DefaultCostModel,
		AmbientFMFI:  ambientFMFI,
		free:         uint64(k) * frames * FrameBytes,
	}
	for i := range s.stripes {
		s.stripes[i] = NewMemory(frames * FrameBytes)
	}
	return s
}

// Stripes returns the stripe count.
func (s *Striped) Stripes() int { return len(s.stripes) }

// TotalBytes returns the pooled capacity (after stripe alignment).
func (s *Striped) TotalBytes() uint64 {
	return uint64(len(s.stripes)) * s.stripeFrames * FrameBytes
}

// FreeBytes returns the pooled free bytes.
func (s *Striped) FreeBytes() uint64 { return s.free }

// View returns owner's handle onto the pool. The owner identity picks the
// home stripe (splitmix64-spread so adjacent process ids land on different
// stripes) and is stable across core counts — stripe placement is part of
// the canonical schedule, not the core topology.
func (s *Striped) View(owner uint64) *StripedView {
	return &StripedView{s: s, home: int(splitmix64(owner) % uint64(len(s.stripes)))}
}

// splitmix64 is the SplitMix64 finalizer (same avalanche as the runner's
// seed tree), used here only for stripe placement.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// alloc probes stripes starting at home, wrapping around, and grants from
// the first stripe that can satisfy the order. Probing is deterministic
// given the home stripe and the pool state. With withHook, the attempt
// takes the next Seq and the Hook may veto it first.
func (s *Striped) alloc(home int, size uint64, withHook bool) (addr.PPN, uint64, error) {
	order := OrderFor(size)
	cycles := s.model.Cycles(BlockBytes(order), s.AmbientFMFI)
	if withHook {
		s.seq++
		if s.Hook != nil {
			if err := s.Hook(AllocRequest{
				Size:       size,
				Order:      order,
				Seq:        s.seq,
				FreeBytes:  s.free,
				TotalBytes: s.TotalBytes(),
			}); err != nil {
				s.stripes[home].noteFailedAlloc()
				return 0, cycles, err
			}
		}
	}
	for i := 0; i < len(s.stripes); i++ {
		idx := (home + i) % len(s.stripes)
		mem := s.stripes[idx]
		if !mem.CanAlloc(order) {
			continue
		}
		ppn, err := mem.AllocOrder(order)
		if err != nil {
			// AllocOrder cannot fail once CanAlloc holds, except for an
			// over-max order, which CanAlloc also rejects.
			continue
		}
		mem.chargeAlloc(cycles)
		s.free -= BlockBytes(order)
		return addr.PPN(uint64(idx)*s.stripeFrames + uint64(ppn)), cycles, nil
	}
	s.stripes[home].noteFailedAlloc()
	return 0, cycles, fmt.Errorf("%w: no stripe holds a free block of order %d (%s)",
		ErrOutOfMemory, order, humanOrder(order))
}

// freeBlock routes a global PPN back to its stripe.
func (s *Striped) freeBlock(ppn addr.PPN, size uint64) {
	order := OrderFor(size)
	idx := uint64(ppn) / s.stripeFrames
	if idx >= uint64(len(s.stripes)) {
		panic(fmt.Sprintf("phys: Striped.Free(%d): frame beyond pool", uint64(ppn)))
	}
	s.stripes[idx].Free(addr.PPN(uint64(ppn)%s.stripeFrames), order)
	s.free += BlockBytes(order)
}

// StatsSum returns the Memory stats summed across stripes.
func (s *Striped) StatsSum() Stats {
	var sum Stats
	for _, mem := range s.stripes {
		ms := mem.Stats()
		sum.Allocs += ms.Allocs
		sum.Frees += ms.Frees
		sum.FailedAllocs += ms.FailedAllocs
		sum.AllocCycles += ms.AllocCycles
		if ms.MaxContiguous > sum.MaxContiguous {
			sum.MaxContiguous = ms.MaxContiguous
		}
	}
	return sum
}

// StripedView is one owner's phys.Source onto a Striped pool. Views are
// cheap handles; every process (and the shared-region manager) in a
// multi-tenant machine holds its own.
type StripedView struct {
	s    *Striped
	home int
}

// Alloc allocates from the pool, preferring the owner's home stripe. The
// machine-wide injection hook is consulted first.
func (v *StripedView) Alloc(size uint64) (addr.PPN, uint64, error) {
	return v.s.alloc(v.home, size, true)
}

// AllocRollback is Alloc minus the injection hook: rollback re-acquisitions
// must succeed unconditionally so failed resizes can restore old geometry.
func (v *StripedView) AllocRollback(size uint64) (addr.PPN, uint64, error) {
	return v.s.alloc(v.home, size, false)
}

// Free returns a block to whichever stripe owns it (not necessarily the
// view's home stripe: the block may have overflowed to a neighbor).
func (v *StripedView) Free(ppn addr.PPN, size uint64) {
	v.s.freeBlock(ppn, size)
}

// Holds reports whether the size-byte block at ppn is one the allocator
// could have granted and not taken back: aligned to its order, inside one
// stripe, and overlapping no free block. Freeing any other block panics.
func (s *Striped) Holds(ppn addr.PPN, size uint64) bool {
	order, idx := OrderFor(size), uint64(ppn)/s.stripeFrames
	if idx >= uint64(len(s.stripes)) {
		return false
	}
	m, f := s.stripes[idx], uint64(ppn)%s.stripeFrames
	if order > m.maxOrder || f&(1<<order-1) != 0 || f+1<<order > m.frames {
		return false
	}
	for o := 0; o <= m.maxOrder; o++ {
		// A free block of order o at or above the block's contains it;
		// one below it lies inside it.
		if o >= order && m.isHead(f&^(1<<o-1), o) || o < order && m.nextHead(f, o) < f+1<<order {
			return false
		}
	}
	return true
}

// Interface conformance: both the single-Memory reference allocator and
// the striped per-owner view are allocation sources.
var (
	_ Source = (*Allocator)(nil)
	_ Source = (*StripedView)(nil)
)
