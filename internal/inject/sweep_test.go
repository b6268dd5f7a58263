// The fault-injection sweep: the robustness acceptance test for the whole
// allocation/resize stack. Over a grid of injection policies × seeds it
// builds an ME-HPT under fault injection, hammers it with inserts and
// deletes, and asserts the degradation contract of DESIGN.md's "Fault model
// & degradation ladder":
//
//  1. No panics anywhere in the stack (a panic fails the test run).
//  2. Every accepted mapping still translates to the right frame; every
//     rejected mapping was rejected explicitly with a typed error chain
//     reaching phys.ErrOutOfMemory.
//  3. No leaked frames: after Free() the buddy allocator's free bytes and
//     per-order free-block counts return exactly to the pre-table baseline.
//  4. Determinism: the same policy and seed reproduce a bit-identical run
//     fingerprint (counts, stats, and accepted-key checksum).
//
// A companion test drives the OS model to the point of failure and checks
// the typed PressureError surfaces with the full chain intact.
package inject_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/inject"
	"repro/internal/mehpt"
	"repro/internal/osmodel"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sweepFingerprint summarizes one sweep run for determinism comparison.
type sweepFingerprint struct {
	Accepted    int
	Rejected    int
	KeySum      uint64 // checksum over accepted VPNs
	Stash       int
	TableStats  mehpt.Stats
	InjectStats inject.Stats
	Allocs      uint64
	Frees       uint64
	Failed      uint64
}

// sweepOnce builds a table under the policy, runs the insert/delete load,
// verifies the degradation contract, frees everything, verifies frame
// accounting, and returns the run's fingerprint.
func sweepOnce(t *testing.T, spec string, seed int64) sweepFingerprint {
	t.Helper()
	mem := phys.NewMemory(16 * addr.MB)
	alloc := phys.NewAllocator(mem, 0.7)
	baselineFree := mem.FreeBytes()
	baselineBlocks := mem.FreeBlockCounts()

	policy, err := inject.Parse(spec, seed)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	in := inject.Attach(alloc, policy)

	cfg := mehpt.DefaultConfig(uint64(seed))
	table, err := mehpt.NewPageTable(alloc, cfg)
	if err != nil {
		t.Fatalf("NewPageTable: %v", err)
	}

	// Each VPN gets its own cluster (stride = cluster span) so acceptance
	// and rejection are per-insert decisions, not shared-cluster updates.
	const n = 3000
	stride := addr.VPN(pt.ClusterSpan)
	accepted := make(map[addr.VPN]addr.PPN)
	fp := sweepFingerprint{}
	for i := 0; i < n; i++ {
		vpn := addr.VPN(0x10000) + addr.VPN(i)*stride
		ppn := addr.PPN(i + 1)
		_, err := table.Map(vpn, addr.Page4K, ppn)
		if err != nil {
			// Contract 2b: rejections are explicit and typed.
			if !errors.Is(err, phys.ErrOutOfMemory) &&
				!errors.Is(err, mehpt.ErrTableFull) &&
				!errors.Is(err, mehpt.ErrResizeFailed) {
				t.Fatalf("[%s seed %d] vpn %#x rejected with untyped error: %v",
					spec, seed, vpn, err)
			}
			fp.Rejected++
			continue
		}
		accepted[vpn] = ppn
		fp.Accepted++
		fp.KeySum += uint64(vpn)*0x9E3779B97F4A7C15 + uint64(ppn)
	}

	// Delete a third of what was accepted to exercise downsizes (and their
	// skip-on-pressure path) under the same policy.
	i := 0
	for vpn := addr.VPN(0x10000); vpn < addr.VPN(0x10000)+addr.VPN(n)*stride; vpn += stride {
		if _, ok := accepted[vpn]; !ok {
			continue
		}
		if i%3 == 0 {
			if _, ok := table.Unmap(vpn, addr.Page4K); !ok {
				t.Fatalf("[%s seed %d] accepted vpn %#x failed to unmap", spec, seed, vpn)
			}
			delete(accepted, vpn)
		}
		i++
	}

	// Contract 2a: everything still accepted translates, exactly.
	for vpn, want := range accepted {
		got, ok := table.TranslateSize(vpn, addr.Page4K)
		if !ok {
			t.Fatalf("[%s seed %d] accepted vpn %#x no longer translates", spec, seed, vpn)
		}
		if got != want {
			t.Fatalf("[%s seed %d] vpn %#x translates to %#x, want %#x",
				spec, seed, vpn, got, want)
		}
	}

	if tb := table.Table(addr.Page4K); tb != nil {
		fp.Stash = len(tb.State().Stash)
		fp.TableStats = tb.Stats()
	}
	fp.InjectStats = in.Stats()

	// Contract 3: teardown returns the buddy allocator to its baseline.
	table.Free()
	if got := mem.FreeBytes(); got != baselineFree {
		t.Fatalf("[%s seed %d] leaked frames: free %d bytes after Free, baseline %d",
			spec, seed, got, baselineFree)
	}
	if got := mem.FreeBlockCounts(); !reflect.DeepEqual(got, baselineBlocks) {
		t.Fatalf("[%s seed %d] free-list fingerprint diverged:\n got %v\nwant %v",
			spec, seed, got, baselineBlocks)
	}

	s := mem.Stats()
	fp.Allocs, fp.Frees, fp.Failed = s.Allocs, s.Frees, s.FailedAllocs
	return fp
}

// TestFaultSweep runs the policy × seed grid, each cell twice, asserting the
// degradation contract inside sweepOnce and bit-identical fingerprints
// across the repeat.
func TestFaultSweep(t *testing.T) {
	policies := []string{
		"nth=5",              // periodic failures from the start
		"nth=97",             // sparse periodic failures
		"after=20",           // hard exhaustion early in table growth
		"after=200",          // exhaustion mid-growth
		"rate=0.3",           // heavy random failures
		"rate=0.02",          // light random failures
		"big=16KB",           // fragmentation: only the smallest rung allocates
		"big=64KB",           // fragmentation: small rungs allocate
		"pressure=0.001",     // near-total pressure ceiling
		"nth=7+big=64KB",     // composed: periodic plus fragmentation
		"rate=0.1+after=500", // composed, stateful + stateless
	}
	seeds := []int64{1, 2, 3}
	for _, spec := range policies {
		for _, seed := range seeds {
			spec, seed := spec, seed
			t.Run(fmt.Sprintf("%s/seed%d", spec, seed), func(t *testing.T) {
				t.Parallel()
				first := sweepOnce(t, spec, seed)
				second := sweepOnce(t, spec, seed)
				if !reflect.DeepEqual(first, second) {
					t.Errorf("same policy+seed diverged:\n first %+v\nsecond %+v",
						first, second)
				}
				if first.Accepted == 0 {
					t.Errorf("policy accepted nothing; grid cell exercises no table code")
				}
			})
		}
	}
}

// TestSweepOSPressureError drives the OS model into allocation failure and
// checks the typed surface: errors.As recovers the PressureError with its
// faulting address and operation, and the chain reaches both ErrInjected
// and phys.ErrOutOfMemory.
func TestSweepOSPressureError(t *testing.T) {
	mem := phys.NewMemory(16 * addr.MB)
	alloc := phys.NewAllocator(mem, 0.7)
	inject.Attach(alloc, inject.AfterN{N: 40})

	table, err := mehpt.NewPageTable(alloc, mehpt.DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	os := osmodel.New(osmodel.DefaultConfig(), table, alloc)

	var faultErr error
	var faultVA addr.VirtAddr
	for i := 0; i < 1000; i++ {
		va := addr.VirtAddr(0x4000_0000) + addr.VirtAddr(i)*4096
		if _, err := os.HandleFault(va); err != nil {
			faultErr, faultVA = err, va
			break
		}
	}
	if faultErr == nil {
		t.Fatal("no fault error after exhausting the injection budget")
	}
	var pe *osmodel.PressureError
	if !errors.As(faultErr, &pe) {
		t.Fatalf("fault error is not a *osmodel.PressureError: %v", faultErr)
	}
	if pe.VA != faultVA {
		t.Errorf("PressureError.VA = %#x, want %#x", uint64(pe.VA), uint64(faultVA))
	}
	if pe.Op != "data-alloc" && pe.Op != "pt-map" {
		t.Errorf("PressureError.Op = %q, want data-alloc or pt-map", pe.Op)
	}
	if !errors.Is(faultErr, phys.ErrOutOfMemory) {
		t.Errorf("chain must reach phys.ErrOutOfMemory: %v", faultErr)
	}
	if !errors.Is(faultErr, inject.ErrInjected) {
		t.Errorf("chain must reach inject.ErrInjected: %v", faultErr)
	}
}

// TestSweepSimDeterminism: a full machine run under injection is
// reproducible — the same Config (including the Inject spec) yields a
// deeply equal Result, and the injected-fault count is visible on it.
func TestSweepSimDeterminism(t *testing.T) {
	spec := workload.Specs(128)[0]
	run := func() sim.Result {
		m, err := sim.NewMachine(sim.Config{
			Org:          sim.MEHPT,
			Workload:     spec,
			Populate:     true,
			Seed:         11,
			MemBytes:     1 * addr.GB,
			FreeFraction: 0.35,
			Inject:       "rate=0.05+big=1MB",
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Run()
	}
	a, b := run(), run()
	// The live table handles are identity objects (they hold hash-function
	// closures, which never compare deeply equal); the numeric payload is
	// what the determinism contract covers.
	a.MEHPT, a.ECPT = nil, nil
	b.MEHPT, b.ECPT = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same config+inject diverged:\n a %+v\n b %+v", a, b)
	}
	if a.InjectedFaults == 0 {
		t.Error("InjectedFaults = 0; the policy never fired (weak test)")
	}
}
