package phys

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/addr"
)

// Striped is a shared physical allocator for the multi-tenant simulation:
// one machine-wide frame pool partitioned into K independently-locked
// stripes, each a private buddy Memory over a contiguous slice of the frame
// space. Concurrent tenants contend only on their home stripe's mutex in
// the common case, which is what lets the race-tier stress tests drive
// hundreds of goroutines through one pool without serializing them on a
// single lock.
//
// Frame numbering: stripe i owns global frames [i*stripeFrames,
// (i+1)*stripeFrames); a block allocated locally at frame f maps to global
// PPN i*stripeFrames+f, and Free routes back by division. stripeFrames is
// always a multiple of 512 frames (2MB), so a 2MB-aligned local block stays
// 2MB-aligned globally and THP data mappings remain valid. 1GB mappings are
// not supported through Striped.
//
// Determinism: the canonical multi-tenant schedule issues allocations
// sequentially, and every quantity a request observes (home stripe, probe
// order, Seq, FreeBytes) is then a pure function of the allocation history —
// so striped runs are bit-identical to themselves at any simulated core
// count. Under true concurrency (the stress tests) Seq and FreeBytes are
// racy by construction; those tests assert invariants, not fingerprints.
type Striped struct {
	stripes      []*stripe
	stripeFrames uint64
	//mehpt:transient -- always DefaultCostModel; RestoreStriped reinstates the constant
	model CostModel

	// AmbientFMFI is the fragmentation level used for pricing allocations,
	// mirroring Allocator.AmbientFMFI. Set before use; not synchronized.
	AmbientFMFI float64

	//mehpt:transient -- derived counter; RestoreStriped recomputes it from the restored stripes' free bytes
	free atomic.Uint64 // global free bytes, maintained on alloc/free

	hookMu sync.Mutex
	//mehpt:transient -- injection policy, serialized separately by its owner and re-attached after restore (see StripedState)
	hook AllocHook //mehpt:guardedby hookMu
	seq  uint64    //mehpt:guardedby hookMu -- allocation attempts issued
}

type stripe struct {
	mu  sync.Mutex //mehpt:ordered stripe
	mem *Memory    //mehpt:guardedby mu
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
		stripes:      make([]*stripe, k),
		stripeFrames: frames,
		model:        DefaultCostModel,
		AmbientFMFI:  ambientFMFI,
	}
	for i := range s.stripes {
		s.stripes[i] = &stripe{mem: NewMemory(frames * FrameBytes)}
	}
	s.free.Store(uint64(k) * frames * FrameBytes)
	return s
}

// SetHook installs (or clears) the fault-injection hook consulted before
// every Alloc attempt, machine-wide across all stripes.
func (s *Striped) SetHook(h AllocHook) {
	s.hookMu.Lock()
	s.hook = h
	s.hookMu.Unlock()
}

// Stripes returns the stripe count.
func (s *Striped) Stripes() int { return len(s.stripes) }

// TotalBytes returns the pooled capacity (after stripe alignment).
func (s *Striped) TotalBytes() uint64 {
	return uint64(len(s.stripes)) * s.stripeFrames * FrameBytes
}

// FreeBytes returns the pooled free bytes. It is maintained atomically so
// pressure-threshold injection policies can observe memory conditions
// without taking every stripe lock.
func (s *Striped) FreeBytes() uint64 { return s.free.Load() }

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

// consultHook runs the installed hook (if any) for one attempt, assigning
// the attempt's global sequence number.
func (s *Striped) consultHook(size uint64, order int) error {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	s.seq++
	if s.hook == nil {
		return nil
	}
	return s.hook(AllocRequest{
		Size:       size,
		Order:      order,
		Seq:        s.seq,
		FreeBytes:  s.free.Load(),
		TotalBytes: s.TotalBytes(),
	})
}

// alloc probes stripes starting at home, wrapping around, and grants from
// the first stripe that can satisfy the order. Probing is deterministic
// given the home stripe and the pool state.
func (s *Striped) alloc(home int, size uint64, withHook bool) (addr.PPN, uint64, error) {
	order := OrderFor(size)
	cycles := s.model.Cycles(BlockBytes(order), s.AmbientFMFI)
	if withHook {
		if err := s.consultHook(size, order); err != nil {
			st := s.stripes[home]
			st.mu.Lock()
			st.mem.noteFailedAlloc()
			st.mu.Unlock()
			return 0, cycles, err
		}
	}
	for i := 0; i < len(s.stripes); i++ {
		idx := (home + i) % len(s.stripes)
		st := s.stripes[idx]
		st.mu.Lock()
		if !st.mem.CanAlloc(order) {
			st.mu.Unlock()
			continue
		}
		ppn, err := st.mem.AllocOrder(order)
		if err != nil {
			// CanAlloc held under the same lock; AllocOrder cannot fail
			// except for an over-max order, which CanAlloc also rejects.
			st.mu.Unlock()
			continue
		}
		st.mem.chargeAlloc(cycles)
		st.mu.Unlock()
		s.free.Add(^uint64(BlockBytes(order) - 1)) // subtract
		return addr.PPN(uint64(idx)*s.stripeFrames + uint64(ppn)), cycles, nil
	}
	st := s.stripes[home]
	st.mu.Lock()
	st.mem.noteFailedAlloc()
	st.mu.Unlock()
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
	local := addr.PPN(uint64(ppn) % s.stripeFrames)
	st := s.stripes[idx]
	st.mu.Lock()
	st.mem.Free(local, order)
	st.mu.Unlock()
	s.free.Add(BlockBytes(order))
}

// FreeBlockCounts returns the live free-block counts summed across stripes,
// indexed by order — the pool-wide leak-detection fingerprint, comparable
// against a baseline after teardown exactly like Memory.FreeBlockCounts.
func (s *Striped) FreeBlockCounts() []uint64 {
	counts := make([]uint64, MaxOrder+1)
	for _, st := range s.stripes {
		st.mu.Lock()
		for o, c := range st.mem.FreeBlockCounts() {
			counts[o] += c
		}
		st.mu.Unlock()
	}
	return counts
}

// StatsSum returns the Memory stats summed across stripes.
func (s *Striped) StatsSum() Stats {
	sum := Stats{AllocsBySize: make(map[uint64]uint64)}
	for _, st := range s.stripes {
		st.mu.Lock()
		ms := st.mem.Stats()
		st.mu.Unlock()
		sum.Allocs += ms.Allocs
		sum.Frees += ms.Frees
		sum.FailedAllocs += ms.FailedAllocs
		sum.AllocCycles += ms.AllocCycles
		if ms.MaxContiguous > sum.MaxContiguous {
			sum.MaxContiguous = ms.MaxContiguous
		}
		for sz, n := range ms.AllocsBySize {
			sum.AllocsBySize[sz] += n
		}
	}
	return sum
}

// FMFI returns the pool-wide Free Memory Fragmentation Index for the given
// order, computed over the combined free lists of every stripe.
func (s *Striped) FMFI(order int) float64 {
	var usable, total uint64
	for _, st := range s.stripes {
		st.mu.Lock()
		usable += st.mem.FreeBytesInBlocksGE(order)
		total += st.mem.FreeBytes()
		st.mu.Unlock()
	}
	if total == 0 {
		return 1
	}
	return 1 - float64(usable)/float64(total)
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

// Interface conformance: both the single-lock reference allocator and the
// striped per-owner view are allocation sources.
var (
	_ Source = (*Allocator)(nil)
	_ Source = (*StripedView)(nil)
)
