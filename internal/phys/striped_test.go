// Tests for the striped multi-tenant pool: a property test pinning the
// K=1 pool to the single-Memory reference allocator, invariants
// (alignment, routing, leak detection), and a stress battery of seeded
// interleavings of many owners — no frame is ever granted twice,
// accounting balances, and every attempt takes exactly one hook sequence
// number.
package phys

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/addr"
)

// poolBlockCounts returns the live free-block counts summed across the
// pool's stripes, indexed by order: the pool-wide leak fingerprint,
// compared against a baseline after teardown.
func poolBlockCounts(s *Striped) []uint64 {
	counts := make([]uint64, MaxOrder+1)
	for _, mem := range s.stripes {
		for o, c := range mem.FreeBlockCounts() {
			counts[o] += c
		}
	}
	return counts
}

// TestStripedMatchesSingleLockReference: a K=1 striped pool driven by a
// seeded alloc/free script produces exactly the same grants, costs,
// errors, and final free-list shape as the reference Allocator over an
// identically-sized Memory. The striped pool is the
// reference allocator plus sharding; at K=1 the sharding must vanish.
func TestStripedMatchesSingleLockReference(t *testing.T) {
	const capacity = 64 * addr.MB
	pool := NewStriped(capacity, 1, 0.7)
	view := pool.View(12345)
	ref := NewAllocator(NewMemory(capacity), 0.7)

	type live struct {
		ppn  addr.PPN
		size uint64
	}
	var poolLive, refLive []live
	rng := rand.New(rand.NewSource(99))
	sizes := []uint64{4 * addr.KB, 8 * addr.KB, 64 * addr.KB, 2 * addr.MB}

	for step := 0; step < 4000; step++ {
		if rng.Intn(3) != 0 || len(poolLive) == 0 {
			size := sizes[rng.Intn(len(sizes))]
			p1, c1, e1 := view.Alloc(size)
			p2, c2, e2 := ref.Alloc(size)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: alloc(%d) error mismatch: striped %v, reference %v",
					step, size, e1, e2)
			}
			if c1 != c2 {
				t.Fatalf("step %d: alloc(%d) cost mismatch: striped %d, reference %d",
					step, size, c1, c2)
			}
			if e1 == nil {
				if p1 != p2 {
					t.Fatalf("step %d: alloc(%d) grant mismatch: striped %d, reference %d",
						step, size, uint64(p1), uint64(p2))
				}
				poolLive = append(poolLive, live{p1, size})
				refLive = append(refLive, live{p2, size})
			}
			continue
		}
		i := rng.Intn(len(poolLive))
		view.Free(poolLive[i].ppn, poolLive[i].size)
		ref.Free(refLive[i].ppn, refLive[i].size)
		poolLive = append(poolLive[:i], poolLive[i+1:]...)
		refLive = append(refLive[:i], refLive[i+1:]...)
	}

	if got, want := pool.FreeBytes(), ref.Mem.FreeBytes(); got != want {
		t.Errorf("free bytes diverge: striped %d, reference %d", got, want)
	}
	// Striped reports all MaxOrder+1 orders; a single Memory stops at its
	// capacity's top order. Pad before comparing shapes.
	pad := func(xs []uint64) []uint64 {
		out := make([]uint64, MaxOrder+1)
		copy(out, xs)
		return out
	}
	if got, want := pad(poolBlockCounts(pool)), pad(ref.Mem.FreeBlockCounts()); !reflect.DeepEqual(got, want) {
		t.Errorf("free-list shape diverges:\nstriped   %v\nreference %v", got, want)
	}
	ps, rs := pool.StatsSum(), ref.Mem.Stats()
	if ps.Allocs != rs.Allocs || ps.Frees != rs.Frees || ps.FailedAllocs != rs.FailedAllocs {
		t.Errorf("stats diverge: striped %d/%d/%d, reference %d/%d/%d",
			ps.Allocs, ps.Frees, ps.FailedAllocs, rs.Allocs, rs.Frees, rs.FailedAllocs)
	}
}

// TestStripedAlignment: stripes are whole 2MB regions, so a 2MB block's
// global PPN stays 512-frame aligned no matter which stripe granted it —
// the invariant THP data mappings rely on.
func TestStripedAlignment(t *testing.T) {
	pool := NewStriped(32*addr.MB, 3, 0.7)
	if pool.TotalBytes()%(2*addr.MB) != 0 {
		t.Fatalf("pool capacity %d not a 2MB multiple", pool.TotalBytes())
	}
	view := pool.View(7)
	for i := 0; ; i++ {
		ppn, _, err := view.Alloc(2 * addr.MB)
		if err != nil {
			if i == 0 {
				t.Fatal("pool granted no 2MB blocks at all")
			}
			break
		}
		if uint64(ppn)%512 != 0 {
			t.Fatalf("2MB block %d granted at frame %d: not 512-frame aligned", i, uint64(ppn))
		}
	}
}

// TestStripedFreeRouting: blocks freed through any view return to the
// stripe that granted them, and freeing a frame beyond the pool panics
// like the buddy allocator's double-free guard.
func TestStripedFreeRouting(t *testing.T) {
	pool := NewStriped(16*addr.MB, 2, 0.7)
	baseline := poolBlockCounts(pool)
	a := pool.View(1)
	b := pool.View(2)
	p1, _, err := a.Alloc(64 * addr.KB)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-view free: view b returns a's block; routing is by PPN, not home.
	b.Free(p1, 64*addr.KB)
	if got := poolBlockCounts(pool); !reflect.DeepEqual(got, baseline) {
		t.Errorf("free-list shape after alloc+cross-view free: %v, want baseline %v", got, baseline)
	}
	defer func() {
		if recover() == nil {
			t.Error("freeing a frame beyond the pool did not panic")
		}
	}()
	a.Free(addr.PPN(pool.TotalBytes()/FrameBytes), 4*addr.KB)
}

// TestStripedTinyStripesPanic: a pool too small for 2MB stripes is a
// construction error, not a silent zero-capacity pool.
func TestStripedTinyStripesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStriped with sub-2MB stripes did not panic")
		}
	}()
	NewStriped(4*addr.MB, 8, 0.7)
}

// TestStripedConcurrentStress interleaves many owners on one pool: a
// seeded scheduler picks which owner steps next, and each owner allocates
// or frees through its private view. Invariants:
//
//  1. No double-grant: every granted frame range is disjoint from every
//     other live grant (checked with a frame-ownership bitmap).
//  2. Accounting balances: after every step the free-byte counter equals
//     capacity minus the live grants, and after every owner frees
//     everything, allocs == frees, the counter is back at capacity, and
//     the free-list shape is back at the baseline (no leaked or split
//     blocks).
func TestStripedConcurrentStress(t *testing.T) {
	const (
		capacity = 128 * addr.MB
		owners   = 16
		steps    = owners * 2000
	)
	pool := NewStriped(capacity, 4, 0.7)
	baseline := poolBlockCounts(pool)
	owner := make([]bool, pool.TotalBytes()/FrameBytes)
	mark := func(ppn addr.PPN, size uint64, live bool) bool {
		frames := BlockBytes(OrderFor(size)) / FrameBytes
		for f := uint64(ppn); f < uint64(ppn)+frames; f++ {
			if owner[f] == live {
				return false
			}
			owner[f] = live
		}
		return true
	}

	type live struct {
		ppn  addr.PPN
		size uint64
	}
	views := make([]*StripedView, owners)
	rngs := make([]*rand.Rand, owners)
	held := make([][]live, owners)
	for id := range views {
		views[id] = pool.View(uint64(id))
		rngs[id] = rand.New(rand.NewSource(int64(1000 + id)))
	}
	sizes := []uint64{4 * addr.KB, 16 * addr.KB, 64 * addr.KB, 2 * addr.MB}
	sched := rand.New(rand.NewSource(7))
	var liveBytes uint64
	for step := 0; step < steps; step++ {
		id := sched.Intn(owners)
		rng := rngs[id]
		if rng.Intn(3) != 0 || len(held[id]) == 0 {
			size := sizes[rng.Intn(len(sizes))]
			ppn, _, err := views[id].Alloc(size)
			if err != nil {
				if !errors.Is(err, ErrOutOfMemory) {
					t.Fatalf("step %d, owner %d: alloc error not typed: %v", step, id, err)
				}
				continue
			}
			if !mark(ppn, size, true) {
				t.Fatalf("step %d, owner %d: frame %d (size %d) granted while already live",
					step, id, uint64(ppn), size)
			}
			held[id] = append(held[id], live{ppn, size})
			liveBytes += BlockBytes(OrderFor(size))
		} else {
			i := rng.Intn(len(held[id]))
			h := held[id][i]
			mark(h.ppn, h.size, false)
			views[id].Free(h.ppn, h.size)
			held[id] = append(held[id][:i], held[id][i+1:]...)
			liveBytes -= BlockBytes(OrderFor(h.size))
		}
		if got, want := pool.FreeBytes(), pool.TotalBytes()-liveBytes; got != want {
			t.Fatalf("step %d: free bytes %d, want %d", step, got, want)
		}
	}
	for id := range held {
		for _, h := range held[id] {
			mark(h.ppn, h.size, false)
			views[id].Free(h.ppn, h.size)
		}
	}

	if got := pool.FreeBytes(); got != pool.TotalBytes() {
		t.Errorf("free bytes after full teardown: %d, want capacity %d", got, pool.TotalBytes())
	}
	if got := poolBlockCounts(pool); !reflect.DeepEqual(got, baseline) {
		t.Errorf("free-list shape leaked:\ngot      %v\nbaseline %v", got, baseline)
	}
	s := pool.StatsSum()
	if s.Allocs != s.Frees {
		t.Errorf("accounting imbalance: %d allocs, %d frees", s.Allocs, s.Frees)
	}
	if s.Allocs == 0 {
		t.Error("stress loop allocated nothing; the test exercised no pool code")
	}
}

// TestStripedConcurrentHook: the machine-wide injection hook is consulted
// exactly once per Alloc attempt, whichever owner issues it, in a seeded
// interleaving of owners — sequence numbers are dense, never repeating or
// skipping — and hook-failed attempts surface typed errors without
// granting frames.
func TestStripedConcurrentHook(t *testing.T) {
	pool := NewStriped(64*addr.MB, 4, 0.7)
	var seqs []uint64
	injected := errors.New("hook says no")
	pool.Hook = func(req AllocRequest) error {
		seqs = append(seqs, req.Seq)
		if req.Seq%5 == 0 {
			return injected
		}
		return nil
	}

	const owners, attempts = 8, 300
	views := make([]*StripedView, owners)
	for id := range views {
		views[id] = pool.View(uint64(id))
	}
	sched := rand.New(rand.NewSource(11))
	failed := 0
	for a := 0; a < owners*attempts; a++ {
		id := sched.Intn(owners)
		ppn, _, err := views[id].Alloc(4 * addr.KB)
		if err != nil {
			if !errors.Is(err, injected) {
				t.Fatalf("attempt %d, owner %d: unexpected alloc error: %v", a, id, err)
			}
			failed++
			continue
		}
		views[id].Free(ppn, 4*addr.KB)
	}

	if want := owners * attempts; len(seqs) != want {
		t.Errorf("hook consulted %d times, want exactly %d", len(seqs), want)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("attempt %d took sequence number %d, want %d", i, seq, i+1)
		}
	}
	if want := owners * attempts / 5; failed != want {
		t.Errorf("injected failures: %d, want %d (every 5th attempt)", failed, want)
	}
	if got := pool.FreeBytes(); got != pool.TotalBytes() {
		t.Errorf("free bytes after hook storm: %d, want %d", got, pool.TotalBytes())
	}
}
