package scrub_test

// Proof obligations for the scrubber: a healthy machine — fresh, mid-run,
// completed, or restored from a checkpoint — scrubs clean, and each
// violation class provably fires when its invariant is seeded broken. The
// corruptions are injected by mutating a captured MachineState and
// restoring it, exactly the surface a bad checkpoint or a memory error
// would corrupt in practice.

import (
	"testing"

	"repro/internal/addr"
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

// corrupt captures a stepped machine, hands the state to mutate, restores,
// and returns the scrub findings.
func corrupt(t *testing.T, org sim.Org, mutate func(m *tenant.Machine, st *tenant.MachineState)) []scrub.Violation {
	t.Helper()
	m := steppedMachine(t, org, 3)
	st := m.State()
	mutate(m, st)
	bad, err := tenant.RestoreMachine(scrubConfig(org), st)
	if err != nil {
		t.Fatalf("RestoreMachine over corrupted state: %v", err)
	}
	return scrub.Machine(bad)
}

// TestDetectsBuddyDrift seeds a free-page counter that disagrees with the
// stripe's free lists.
func TestDetectsBuddyDrift(t *testing.T) {
	vs := corrupt(t, sim.MEHPT, func(_ *tenant.Machine, st *tenant.MachineState) {
		st.Pool.Stripes[0].FreePages += 10
	})
	wantClass(t, vs, scrub.ClassBuddy)
}

// TestDetectsOverlappingFreeBlocks seeds a free block nested inside a
// larger live free block.
func TestDetectsOverlappingFreeBlocks(t *testing.T) {
	vs := corrupt(t, sim.MEHPT, func(_ *tenant.Machine, st *tenant.MachineState) {
		sp := &st.Pool.Stripes[0]
		for head, o := range sp.HeadOrder {
			if o >= 2 {
				// Mark the block's second frame as an order-0 block of its
				// own, with the counters patched to stay self-consistent so
				// only the overlap can fire.
				sp.HeadOrder[head+1] = 0
				sp.FreeBlk[0]++
				sp.FreePages++
				return
			}
		}
		t.Skip("no order>=2 free block to nest inside")
	})
	wantClass(t, vs, scrub.ClassBuddy)
}

// TestDetectsFreedOwnedFrame seeds the allocator freeing a frame a tenant
// page table still owns — the double-free/use-after-free shape. The stripe
// counters are patched to stay self-consistent, so only the cross-layer
// ownership check can catch it.
func TestDetectsFreedOwnedFrame(t *testing.T) {
	vs := corrupt(t, sim.MEHPT, func(m *tenant.Machine, st *tenant.MachineState) {
		owned, found := uint64(0), false
		m.VisitPageTableFrames(func(pid int, base addr.PPN, bytes uint64) {
			if !found {
				owned, found = uint64(base), true
			}
		})
		if !found {
			t.Skip("no page-table frames to corrupt")
		}
		sp := &st.Pool.Stripes[owned/st.Pool.StripeFrames]
		sp.HeadOrder[owned%st.Pool.StripeFrames] = 0
		sp.FreeBlk[0]++
		sp.FreePages++
	})
	wantClass(t, vs, scrub.ClassOwnership)
}

// TestDetectsDanglingMapping seeds a translation pointing outside the pool.
func TestDetectsDanglingMapping(t *testing.T) {
	vs := corrupt(t, sim.MEHPT, func(_ *tenant.Machine, st *tenant.MachineState) {
		slab := &st.Procs[0].MEHPT.Slab
		for ci := range slab.Clusters {
			c := &slab.Clusters[ci]
			for sub := uint(0); sub < 8; sub++ {
				if c.ValidMask&(1<<sub) != 0 {
					c.PPNs[sub] = 1 << 40
					return
				}
			}
		}
		t.Skip("no live cluster to corrupt")
	})
	wantClass(t, vs, scrub.ClassMapping)
}

// TestDetectsDoubleOwnership seeds two translations resolving to the same
// physical frame.
func TestDetectsDoubleOwnership(t *testing.T) {
	vs := corrupt(t, sim.MEHPT, func(_ *tenant.Machine, st *tenant.MachineState) {
		slab := &st.Procs[0].MEHPT.Slab
		for ci := range slab.Clusters {
			c := &slab.Clusters[ci]
			var valid []uint
			for sub := uint(0); sub < 8; sub++ {
				if c.ValidMask&(1<<sub) != 0 {
					valid = append(valid, sub)
				}
			}
			if len(valid) >= 2 {
				c.PPNs[valid[1]] = c.PPNs[valid[0]]
				return
			}
		}
		t.Skip("no cluster with two live translations")
	})
	wantClass(t, vs, scrub.ClassOwnership)
}

// TestDetectsTableCorruption seeds organization-specific structural damage:
// a drifted ME-HPT occupancy counter, a truncated ECPT way group, a radix
// node count that disagrees with the tree.
func TestDetectsTableCorruption(t *testing.T) {
	t.Run("mehpt-occ", func(t *testing.T) {
		vs := corrupt(t, sim.MEHPT, func(_ *tenant.Machine, st *tenant.MachineState) {
			st.Procs[0].MEHPT.Tables[0].Ways[0].Occ++
		})
		wantClass(t, vs, scrub.ClassTable)
	})
	t.Run("ecpt-groups", func(t *testing.T) {
		vs := corrupt(t, sim.ECPT, func(_ *tenant.Machine, st *tenant.MachineState) {
			g := &st.Procs[0].ECPT.Tables[0].Groups[0]
			g.Bases = g.Bases[:len(g.Bases)-1]
		})
		wantClass(t, vs, scrub.ClassTable)
	})
	t.Run("radix-nodes", func(t *testing.T) {
		vs := corrupt(t, sim.Radix, func(_ *tenant.Machine, st *tenant.MachineState) {
			st.Procs[0].Radix.Stats.Nodes++
		})
		wantClass(t, vs, scrub.ClassTable)
	})
}
