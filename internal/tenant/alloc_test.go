package tenant

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// TestQuantumAllocFree: once a tenant's working set is mapped, a scheduling
// visit (rebind, then a quantum of private batches, shared accesses and the
// walks the rebind's flush forces) allocates nothing, for every
// organization.
func TestQuantumAllocFree(t *testing.T) {
	const warmRounds, runs = 200, 50
	for _, org := range []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT} {
		t.Run(org.String(), func(t *testing.T) {
			cfg := Config{Org: org, Processes: 1, MemBytes: 64 * addr.MB, Seed: 1,
				Quantum: 512, Scale: 4096, AccessesPerProc: 512 * (warmRounds + runs + 1)}
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < warmRounds; i++ {
				if err := m.StepRound(); err != nil {
					t.Fatal(err)
				}
			}
			p, sh := m.procs[0], m.shards[0]
			left, walks := p.left, sh.mmu.Stats().Walks
			allocs := testing.AllocsPerRun(runs, func() {
				sh.bind(p)
				runQuantum(m.cfg, p, sh, m.shared)
			})
			if p.res.Failed {
				t.Fatalf("tenant failed: %s", p.res.Failure)
			}
			if ran := left - p.left; ran != (runs+1)*cfg.Quantum {
				t.Fatalf("measured quanta ran %d accesses, want %d", ran, (runs+1)*cfg.Quantum)
			}
			if sh.mmu.Stats().Walks == walks {
				t.Fatal("measured quanta walked no page table")
			}
			if allocs != 0 {
				t.Errorf("a quantum allocates %v times, want 0", allocs)
			}
		})
	}
}
