// Error-chain tests: every recoverable failure in the allocation/resize
// stack is a typed sentinel wrapping the underlying cause via %w, so
// errors.Is reaches phys.ErrOutOfMemory (and inject.ErrInjected for
// injected faults) from any layer, and rollback leaves each layer valid at
// its old geometry.
package inject_test

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/chunk"
	"repro/internal/cuckoo"
	"repro/internal/ecpt"
	"repro/internal/inject"
	"repro/internal/l2p"
	"repro/internal/mehpt"
	"repro/internal/phys"
	"repro/internal/pt"
)

// TestChunkTransitionChain: a chunk-size transition whose next-rung
// allocation is injected to fail must roll back to the old rung, leave the
// buddy state untouched, and return ErrTransitionFailed wrapping the cause.
func TestChunkTransitionChain(t *testing.T) {
	mem := phys.NewMemory(64 * addr.MB)
	alloc := phys.NewAllocator(mem, 0.7)
	tbl := l2p.New(3)

	s, _, err := chunk.NewStoreLadder(alloc, tbl, 0, addr.Page4K, 8*addr.KB, chunk.Ladder)
	if err != nil {
		t.Fatal(err)
	}
	// Block the next rung (1MB) but not the current one (8KB).
	inject.Attach(alloc, inject.MinSize{Bytes: 1 * addr.MB})

	preFree := mem.FreeBytes()
	preChunk, preWay, preFoot := s.ChunkBytes(), s.WayBytes(), s.FootprintBytes()

	_, err = s.Transition(2 * addr.MB)
	if err == nil {
		t.Fatal("Transition must fail under a blocked next rung")
	}
	if !errors.Is(err, chunk.ErrTransitionFailed) {
		t.Errorf("want ErrTransitionFailed in chain: %v", err)
	}
	if !errors.Is(err, phys.ErrOutOfMemory) || !errors.Is(err, inject.ErrInjected) {
		t.Errorf("chain must reach phys.ErrOutOfMemory and inject.ErrInjected: %v", err)
	}
	if s.ChunkBytes() != preChunk || s.WayBytes() != preWay || s.FootprintBytes() != preFoot {
		t.Errorf("store not rolled back: chunk %d way %d footprint %d, want %d/%d/%d",
			s.ChunkBytes(), s.WayBytes(), s.FootprintBytes(), preChunk, preWay, preFoot)
	}
	if got := mem.FreeBytes(); got != preFree {
		t.Errorf("buddy state changed across rolled-back transition: free %d, want %d", got, preFree)
	}
	s.Free()
}

// TestECPTConstructionChain: ECPT needs an 8KB contiguous block per initial
// way; when that is injected to fail, construction returns the chain intact
// and strands no frames.
func TestECPTConstructionChain(t *testing.T) {
	mem := phys.NewMemory(16 * addr.MB)
	alloc := phys.NewAllocator(mem, 0.7)
	baseline := mem.FreeBytes()
	inject.Attach(alloc, inject.MinSize{Bytes: 8 * addr.KB})

	_, err := ecpt.NewTable(addr.Page4K, alloc, ecpt.DefaultConfig(3))
	if err == nil {
		t.Fatal("construction must fail when the initial ways cannot be allocated")
	}
	if !errors.Is(err, phys.ErrOutOfMemory) || !errors.Is(err, inject.ErrInjected) {
		t.Errorf("chain must reach phys.ErrOutOfMemory and inject.ErrInjected: %v", err)
	}
	if got := mem.FreeBytes(); got != baseline {
		t.Errorf("failed construction leaked frames: free %d, want %d", got, baseline)
	}
}

// TestMEHPTResizeFailedChain: hard exhaustion after the initial ways makes
// every upsize fail down the whole degradation ladder; the insert that
// finally cannot be placed surfaces ErrTableFull wrapping ErrResizeFailed
// wrapping the injected out-of-memory cause, and everything accepted before
// that still translates.
func TestMEHPTResizeFailedChain(t *testing.T) {
	mem := phys.NewMemory(16 * addr.MB)
	alloc := phys.NewAllocator(mem, 0.7)
	// The 4KB table's three initial 8KB ways are attempts 1..3; everything
	// after fails, so no resize can ever complete.
	inject.Attach(alloc, inject.AfterN{N: 3})

	table, err := mehpt.NewPageTable(alloc, mehpt.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(map[addr.VPN]addr.PPN)
	var insertErr error
	for i := 0; i < 5000; i++ {
		vpn := addr.VPN(i) * pt.ClusterSpan
		ppn := addr.PPN(i + 1)
		if _, err := table.Map(vpn, addr.Page4K, ppn); err != nil {
			insertErr = err
			break
		}
		accepted[vpn] = ppn
	}
	if insertErr == nil {
		t.Fatal("table absorbed 5000 clusters into 3 frozen 8KB ways; expected ErrTableFull")
	}
	if !errors.Is(insertErr, mehpt.ErrTableFull) {
		t.Errorf("want ErrTableFull in chain: %v", insertErr)
	}
	if !errors.Is(insertErr, mehpt.ErrResizeFailed) {
		t.Errorf("want ErrResizeFailed in chain: %v", insertErr)
	}
	if !errors.Is(insertErr, phys.ErrOutOfMemory) || !errors.Is(insertErr, inject.ErrInjected) {
		t.Errorf("chain must reach phys.ErrOutOfMemory and inject.ErrInjected: %v", insertErr)
	}
	if len(accepted) == 0 {
		t.Fatal("nothing accepted before exhaustion")
	}
	if got := table.Table(addr.Page4K).Stats().FailedUpsizes; got == 0 {
		t.Error("FailedUpsizes = 0; the deferral path never ran")
	}
	for vpn, want := range accepted {
		got, ok := table.TranslateSize(vpn, addr.Page4K)
		if !ok || got != want {
			t.Fatalf("accepted vpn %#x lost after rejected insert: got %#x/%v, want %#x",
				vpn, got, ok, want)
		}
	}
	table.Free()
}

// TestCuckooMigrationFailedChain: with MaxKicks=0 a gradual-rehash conflict
// cannot displace its victim, so draining the resize surfaces
// ErrMigrationFailed — and the failed step's rollback keeps every accepted
// key reachable. The seed grid is fixed, so the trigger is deterministic.
func TestCuckooMigrationFailedChain(t *testing.T) {
	triggered := false
	for seed := uint64(1); seed <= 20 && !triggered; seed++ {
		cfg := cuckoo.Config{
			Ways:           2,
			InitialEntries: 8,
			UpsizeAt:       0.6,
			DownsizeAt:     0.2,
			MaxKicks:       0,
			RehashBatch:    1,
			HashSeed:       seed,
			Hooks: cuckoo.Hooks{
				AllocWays: func(uint64) error { return nil },
				FreeWays:  func(uint64) {},
			},
		}
		tb, err := cuckoo.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		accepted := make(map[uint64]uint64)
		for k := uint64(1); k <= 200; k++ {
			if _, err := tb.Insert(k, k*10); err != nil {
				break
			}
			accepted[k] = k * 10
		}
		if err := tb.DrainResize(); err != nil {
			if !errors.Is(err, cuckoo.ErrMigrationFailed) {
				t.Fatalf("seed %d: drain error is not ErrMigrationFailed: %v", seed, err)
			}
			triggered = true
		}
		for k, want := range accepted {
			got, ok := tb.Lookup(k)
			if !ok || got != want {
				t.Fatalf("seed %d: accepted key %d unreachable (got %d/%v, want %d)",
					seed, k, got, ok, want)
			}
		}
	}
	if !triggered {
		t.Error("no seed in the grid triggered a migration failure; tighten the config")
	}
}
