package scrub_test

// Proof obligations for the scrubber: a healthy machine — fresh, mid-run,
// completed, or restored from a checkpoint — scrubs clean, and each
// violation class provably fires when its invariant is seeded broken.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/phys"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/tenant"
)

func scrubConfig(org sim.Org) tenant.Config {
	return tenant.Config{
		Org:             org,
		Processes:       5,
		Cores:           2,
		Seed:            1234,
		AccessesPerProc: 3000,
		Quantum:         512,
	}
}

// steppedMachine returns a machine advanced past several rounds of table
// growth, remaps, and context switches.
func steppedMachine(t *testing.T, org sim.Org, rounds int) *tenant.Machine {
	t.Helper()
	m, err := tenant.NewMachine(scrubConfig(org))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	for i := 0; i < rounds && !m.Done(); i++ {
		if err := m.StepRound(); err != nil {
			t.Fatalf("StepRound: %v", err)
		}
	}
	return m
}

func wantClean(t *testing.T, m *tenant.Machine, when string) {
	t.Helper()
	if vs := scrub.Machine(m); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("%s: %s", when, v)
		}
		t.Fatalf("%s: %d violations on a healthy machine", when, len(vs))
	}
}

func wantClass(t *testing.T, vs []scrub.Violation, class string) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatalf("seeded corruption not detected (want class %s)", class)
	}
	for _, v := range vs {
		if v.Class == class {
			return
		}
	}
	for _, v := range vs {
		t.Logf("got: %s", v)
	}
	t.Fatalf("no %s violation among %d findings", class, len(vs))
}

// TestCleanMachines scrubs every organization mid-run, at completion, and
// after a state round trip: zero violations each time.
func TestCleanMachines(t *testing.T) {
	for _, org := range []sim.Org{sim.MEHPT, sim.ECPT, sim.Radix} {
		t.Run(org.String(), func(t *testing.T) {
			m := steppedMachine(t, org, 3)
			wantClean(t, m, "mid-run")

			restored, err := tenant.RestoreMachine(scrubConfig(org), m.State())
			if err != nil {
				t.Fatalf("RestoreMachine: %v", err)
			}
			wantClean(t, restored, "restored")

			for !m.Done() {
				if err := m.StepRound(); err != nil {
					t.Fatalf("StepRound: %v", err)
				}
			}
			wantClean(t, m, "completed")
		})
	}
}

// The restore refuses a machine state whose free map, frame ownership or
// table structure is corrupt, so the buddy, ownership and mapping
// corruptions below are seeded into a running machine through its pool,
// as an allocator bug would seed them, and the table corruptions are
// checked at the restore, which runs the checks the scrubber reports.

// stripeZero calls f with the first stripe of m's pool.
func stripeZero(m *tenant.Machine, f func(mem *phys.Memory)) {
	m.Pool().InspectStripes(func(idx int, mem *phys.Memory) {
		if idx == 0 {
			f(mem)
		}
	})
}

// dataFrame returns the 4KB frame of some private mapping of m.
func dataFrame(t *testing.T, m *tenant.Machine) addr.PPN {
	t.Helper()
	var frame addr.PPN
	found := false
	m.VisitDataMappings(func(_ int, _ addr.VPN, s addr.PageSize, ppn addr.PPN) {
		if !found && s == addr.Page4K {
			frame, found = ppn, true
		}
	})
	if !found {
		t.Skip("no 4KB mapping to corrupt")
	}
	return frame
}

// TestDetectsBuddyDrift seeds a pool free-byte counter that disagrees with
// the stripes' free lists: a block taken from a stripe behind the pool's
// back.
func TestDetectsBuddyDrift(t *testing.T) {
	m := steppedMachine(t, sim.MEHPT, 3)
	stripeZero(m, func(mem *phys.Memory) {
		if _, err := mem.Alloc(40 * addr.KB); err != nil {
			t.Fatalf("Alloc: %v", err)
		}
	})
	wantClass(t, scrub.Machine(m), scrub.ClassBuddy)
}

// TestDetectsOverlappingFreeBlocks seeds a free block nested inside a
// larger live free block.
func TestDetectsOverlappingFreeBlocks(t *testing.T) {
	m := steppedMachine(t, sim.MEHPT, 3)
	stripeZero(m, func(mem *phys.Memory) {
		head, found := uint64(0), false
		mem.VisitFreeBlocks(func(h uint64, order int) {
			if !found && order >= 2 {
				head, found = h, true
			}
		})
		if !found {
			t.Skip("no order>=2 free block to nest inside")
		}
		// Free the block's second frame as an order-0 block of its own;
		// the stripe's counters count it, so the overlap fires.
		mem.Free(addr.PPN(head+1), 0)
	})
	wantClass(t, scrub.Machine(m), scrub.ClassBuddy)
}

// TestDetectsFreedOwnedFrame seeds the allocator freeing a frame a tenant
// page table still owns — the double-free/use-after-free shape. The pool
// accounts the free, so only the cross-layer ownership check can catch it.
func TestDetectsFreedOwnedFrame(t *testing.T) {
	m := steppedMachine(t, sim.MEHPT, 3)
	var owned addr.PPN
	var bytes uint64
	m.VisitPageTableFrames(func(pid int, base addr.PPN, n uint64) {
		if bytes == 0 {
			owned, bytes = base, n
		}
	})
	if bytes == 0 {
		t.Skip("no page-table frames to corrupt")
	}
	m.Pool().View(0).Free(owned, bytes)
	wantClass(t, scrub.Machine(m), scrub.ClassOwnership)
}

// TestDetectsDanglingMapping seeds a translation whose frame the allocator
// has taken back.
func TestDetectsDanglingMapping(t *testing.T) {
	m := steppedMachine(t, sim.MEHPT, 3)
	m.Pool().View(0).Free(dataFrame(t, m), 4*addr.KB)
	wantClass(t, scrub.Machine(m), scrub.ClassMapping)
}

// TestDetectsDoubleOwnership seeds two owners of one physical frame: a
// mapped frame freed behind its tenant's back is the first frame the
// allocator grants next, to the next fault or shared-page remap.
func TestDetectsDoubleOwnership(t *testing.T) {
	m := steppedMachine(t, sim.MEHPT, 3)
	m.Pool().View(0).Free(dataFrame(t, m), 4*addr.KB)
	if err := m.StepRound(); err != nil {
		t.Fatalf("StepRound: %v", err)
	}
	wantClass(t, scrub.Machine(m), scrub.ClassOwnership)
}

// TestDetectsTableCorruption seeds organization-specific structural damage
// into a checkpoint: a drifted ME-HPT occupancy counter, a truncated ECPT
// way group, a radix node count that disagrees with the tree. The restore
// runs the table checks the scrubber reports as table-structure
// violations, and must refuse each state with that check's finding.
func TestDetectsTableCorruption(t *testing.T) {
	for _, tc := range []struct {
		name   string
		org    sim.Org
		mutate func(st *tenant.MachineState)
		want   string
	}{
		{"mehpt-occ", sim.MEHPT, func(st *tenant.MachineState) { st.Procs[0].MEHPT.Tables[0].Ways[0].Occ++ }, "live slots"},
		{"ecpt-groups", sim.ECPT, func(st *tenant.MachineState) {
			g := &st.Procs[0].ECPT.Tables[0].Groups[0]
			g.Bases = g.Bases[:len(g.Bases)-1]
		}, "way bases for"},
		{"radix-nodes", sim.Radix, func(st *tenant.MachineState) { st.Procs[0].Radix.Stats.Nodes++ }, "tree reaches"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := steppedMachine(t, tc.org, 3).State()
			tc.mutate(st)
			_, err := tenant.RestoreMachine(scrubConfig(tc.org), st)
			if !errors.Is(err, tenant.ErrMismatch) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreMachine over corrupted state: got %v, want ErrMismatch reporting %q", err, tc.want)
			}
		})
	}
}
