package sim

import (
	"errors"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mmu"
	"repro/internal/osmodel"
)

// ErrFaultPersisted reports a reference that still faults after the OS
// handled its page fault successfully: the handler claimed a mapping the
// MMU cannot walk to, so the run cannot price the reference.
var ErrFaultPersisted = errors.New("fault persisted after OS handling")

// Tally is the cycle accounting an Engine run adds to.
type Tally struct {
	Accesses   uint64 // completed references (a failing one is not counted)
	XlatCycles uint64 // translation latency (TLB + walks), failing reference included
	DataCycles uint64 // data-access cache latency, divided by DataMLP
	OSCycles   uint64 // page-fault handling, failing reference included
}

// MMU is the translation front end an Engine drives: a *mmu.MMU, or a test
// double that fakes a fault the OS cannot fix.
type MMU interface {
	Translate(va addr.VirtAddr) mmu.Result
	TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64)
	TranslateWalk(va addr.VirtAddr, missLat uint64) mmu.Result
	Stats() mmu.Stats
}

// Engine is the one access loop every driver runs: a reference costs its
// translation through MMU (TLB, then walk), any page fault through OS, and
// its data access through Cache. Cache must be the hierarchy MMU's walks
// access, so walks and data share one cache state. The fields may be
// rebound between runs (the multi-tenant machine does so every quantum).
//
// The loop is batched: TranslateBatchPAs resolves the longest TLB-hit run
// in one call, AccessBatch replays the run's data accesses, and only the
// element that misses every TLB drops to the scalar walk/fault path. The
// reorder is invisible — TLB hits touch only TLB state and data accesses
// only cache state, so hits-then-accesses commutes with the scalar
// interleave, and the batch stops at the first page walk (which does touch
// the data caches) so walks stay in scalar order. batch_test.go pins this
// bit for bit: a run at any batch fill equals the fill-1 run, and every
// address the loop translates is the flat test oracle's.
type Engine struct {
	MMU   MMU
	Cache *cache.Hierarchy
	OS    *osmodel.OS
	// Per-batch scratch, allocated once with the engine so the loop never
	// touches the heap.
	pas  [mmu.BatchWidth]addr.PhysAddr
	lats [mmu.BatchWidth]uint64
}

// Run performs the references vas in order, adding their cost to t. It
// stops at the first reference that cannot complete and returns why: the
// OS fault handler's error, or ErrFaultPersisted. That reference's
// translation and fault-handling cycles are in t, but t.Accesses does not
// count it; drivers that count attempted references add it themselves.
func (e *Engine) Run(vas []addr.VirtAddr, t *Tally) error {
	mm, mem := e.MMU, e.Cache
	accesses, xlat, data := t.Accesses, t.XlatCycles, t.DataCycles
	var err error
	for len(vas) > 0 {
		k := len(vas)
		if k > mmu.BatchWidth {
			k = mmu.BatchWidth
		}
		done, latSum, missLat := mm.TranslateBatchPAs(vas[:k], e.pas[:])
		xlat += latSum
		if done > 0 {
			accesses += uint64(done)
			mem.AccessBatch(e.pas[:done], e.lats[:done])
			for _, lat := range e.lats[:done] {
				data += lat / DataMLP
			}
		}
		if done == k {
			vas = vas[k:]
			continue
		}
		// Element `done` missed every TLB inside the batch; finish its walk
		// (and any fault) exactly as a scalar Translate would.
		va := vas[done]
		r := mm.TranslateWalk(va, missLat)
		xlat += r.Cycles
		if r.Fault {
			cycles, ferr := e.OS.HandleFault(va)
			t.OSCycles += cycles
			if ferr != nil {
				err = ferr
				break
			}
			r = mm.Translate(va)
			xlat += r.Cycles
			if r.Fault {
				err = ErrFaultPersisted
				break
			}
		}
		accesses++
		data += mem.Access(r.PA) / DataMLP
		vas = vas[done+1:]
	}
	t.Accesses, t.XlatCycles, t.DataCycles = accesses, xlat, data
	return err
}
