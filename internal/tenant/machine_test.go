package tenant

// Checkpoint/restore proof obligations: a machine snapshotted at a round
// boundary and restored from disk must finish with the bit-identical
// fingerprint of the uninterrupted run — per organization, per core count,
// with fault injection armed — and a snapshot restored under the wrong
// identity must be refused with ErrMismatch.

import (
	"errors"
	"math/bits"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/cuckoo"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/sim"
)

// ckptConfig returns a small but non-trivial machine: enough accesses to
// cross several rounds and drive table growth, remaps, and switches.
func ckptConfig(org sim.Org, cores int) Config {
	return Config{
		Org:             org,
		Processes:       6,
		Cores:           cores,
		Seed:            42,
		AccessesPerProc: 3000,
		Quantum:         512,
	}
}

func runToEnd(t *testing.T, m *Machine) *Result {
	t.Helper()
	for !m.Done() {
		if err := m.StepRound(); err != nil {
			t.Fatalf("StepRound: %v", err)
		}
	}
	return m.Collect()
}

// TestGoldenRoundTrip snapshots a machine mid-run, restores it from disk,
// and requires the resumed fingerprint to equal both the interrupted
// machine's own completion and a fresh uninterrupted Run.
func TestGoldenRoundTrip(t *testing.T) {
	for _, org := range []sim.Org{sim.MEHPT, sim.ECPT, sim.Radix} {
		for _, cores := range []int{1, 3} {
			t.Run(org.String()+"/"+string(rune('0'+cores))+"c", func(t *testing.T) {
				cfg := ckptConfig(org, cores)
				base, err := Run(cfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}

				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatalf("NewMachine: %v", err)
				}
				for i := 0; i < 2; i++ {
					if err := m.StepRound(); err != nil {
						t.Fatalf("StepRound: %v", err)
					}
				}
				path := filepath.Join(t.TempDir(), "mid.ckpt")
				if err := m.Checkpoint(path); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}

				cont := runToEnd(t, m).Fingerprint
				if cont != base.Fingerprint {
					t.Fatalf("stepped machine diverged from Run: %s vs %s", cont, base.Fingerprint)
				}

				restored, err := LoadMachine(cfg, path)
				if err != nil {
					t.Fatalf("LoadMachine: %v", err)
				}
				res := runToEnd(t, restored).Fingerprint
				if res != base.Fingerprint {
					t.Fatalf("restored machine diverged: %s vs %s", res, base.Fingerprint)
				}
			})
		}
	}
}

// TestRoundTripUnderInjection proves the injector's generators and counters
// cross the checkpoint: an injected run resumed mid-run must reproduce the
// uninterrupted injected fingerprint.
func TestRoundTripUnderInjection(t *testing.T) {
	// rate=0.001 at this scale fails some tenants and spares others, so the
	// checkpoint carries both failed ProcResults and live generators.
	cfg := ckptConfig(sim.MEHPT, 2)
	cfg.Inject = "rate=0.001"

	base, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := m.StepRound(); err != nil {
			t.Fatalf("StepRound: %v", err)
		}
	}
	if m.Done() {
		t.Fatal("machine finished before the checkpoint; pick a gentler policy")
	}
	path := filepath.Join(t.TempDir(), "inj.ckpt")
	if err := m.Checkpoint(path); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	restored, err := LoadMachine(cfg, path)
	if err != nil {
		t.Fatalf("LoadMachine: %v", err)
	}
	if got := runToEnd(t, restored).Fingerprint; got != base.Fingerprint {
		t.Fatalf("injected restore diverged: %s vs %s", got, base.Fingerprint)
	}
}

// TestRestoreMismatch proves identity cross-checks refuse a snapshot
// restored under the wrong configuration.
func TestRestoreMismatch(t *testing.T) {
	cfg := ckptConfig(sim.ECPT, 2)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if err := m.StepRound(); err != nil {
		t.Fatalf("StepRound: %v", err)
	}
	path := filepath.Join(t.TempDir(), "id.ckpt")
	if err := m.Checkpoint(path); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	for name, mut := range map[string]func(*Config){
		"org":   func(c *Config) { c.Org = sim.MEHPT },
		"seed":  func(c *Config) { c.Seed++ },
		"procs": func(c *Config) { c.Processes++ },
		"cores": func(c *Config) { c.Cores++ },
	} {
		bad := cfg
		mut(&bad)
		if _, err := LoadMachine(bad, path); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s mismatch: got %v, want ErrMismatch", name, err)
		}
	}

	// The radix mutations below run on a radix machine, every other one on m.
	rcfg := ckptConfig(sim.Radix, 2)
	rm, err := NewMachine(rcfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if err := rm.StepRound(); err != nil {
		t.Fatalf("StepRound: %v", err)
	}

	// State the resumed run would trip over only later, as a panic: a
	// generated trace shorter than the remaining budget, and scheduler
	// entries MultiCore indexes the process list with. A free map the
	// buddy allocator cannot hold would instead run on silently with the
	// wrong free frames.
	stripe := func(st *MachineState) *phys.MemoryState { return &st.Pool.Stripes[0] }
	slab := func(st *MachineState) *pt.SlabState { return &st.Procs[0].ECPT.Slab }
	shared := func(st *MachineState) *cuckoo.TableState { return &st.SharedTable.Table }
	ecpt4K := func(st *MachineState) *cuckoo.TableState {
		for i := range st.Procs[0].ECPT.Tables {
			if ts := &st.Procs[0].ECPT.Tables[i]; ts.Size == addr.Page4K {
				return &ts.Cuckoo
			}
		}
		t.Fatal("proc 0 has no 4KB ECPT table")
		return nil
	}
	// inline returns a 4KB ECPT slot holding a one-page cluster inline:
	// bit 63 set, the PPN in bits 0-47, its sub-index in bits 48-50.
	inline := func(st *MachineState) *cuckoo.Entry {
		for _, w := range ecpt4K(st).Cur {
			for i := range w.Slots {
				if e := &w.Slots[i]; e.Key != cuckoo.EmptyKey && e.Val>>63 != 0 {
					return e
				}
			}
		}
		t.Fatal("proc 0's 4KB ECPT holds no inline cluster")
		return nil
	}
	for name, mut := range map[string]func(*MachineState){
		"trace short":     func(st *MachineState) { st.Procs[0].Trace.N = st.Procs[0].Trace.Emitted + st.Procs[0].Left/2 },
		"trace overrun":   func(st *MachineState) { st.Procs[0].Trace.Emitted = st.Procs[0].Trace.N + 1 },
		"incumbent range": func(st *MachineState) { st.Sched.Incumbent[0] = cfg.Processes },
		"incumbent below": func(st *MachineState) { st.Sched.Incumbent[1] = -2 },
		"perm range":      func(st *MachineState) { st.Sched.Perm[0] = cfg.Processes },
		"perm negative":   func(st *MachineState) { st.Sched.Perm[0] = -1 },
		"perm duplicate":  func(st *MachineState) { st.Sched.Perm[0] = st.Sched.Perm[1] },
		"perm length":     func(st *MachineState) { st.Sched.Perm = st.Sched.Perm[1:] },
		"heads truncated": func(st *MachineState) {
			sp := stripe(st)
			sp.HeadOrder = sp.HeadOrder[:len(sp.HeadOrder)/2]
		},
		"max order range": func(st *MachineState) { stripe(st).MaxOrder = phys.MaxOrder + 1 },
		"max order below": func(st *MachineState) { stripe(st).MaxOrder = -1 },
		"head misaligned": func(st *MachineState) { stripe(st).HeadOrder[1] = 1 },
		"head above max":  func(st *MachineState) { stripe(st).HeadOrder[0] = int8(stripe(st).MaxOrder + 1) },
		"head bad order":  func(st *MachineState) { stripe(st).HeadOrder[0] = -2 },
		"free list range": func(st *MachineState) { sp := stripe(st); sp.FreeList[0] = append(sp.FreeList[0], sp.Frames) },
		"stripe frames":   func(st *MachineState) { st.Pool.StripeFrames *= 2 },
		// A slab the tables cannot consistently reference: a free id past
		// the clusters and live ids past a truncated array would panic on
		// first use, and a free id listed twice would be handed out twice,
		// sharing one cluster between two keys.
		"slab free range": func(st *MachineState) { sl := slab(st); sl.Free = append(sl.Free, uint64(len(sl.Clusters))) },
		"slab truncated":  func(st *MachineState) { sl := slab(st); sl.Clusters = sl.Clusters[:len(sl.Clusters)/2] },
		// A PPN past what a packed cluster slot holds.
		"slab ppn bound": func(st *MachineState) {
			for i, c := range slab(st).Clusters {
				if c.ValidMask != 0 {
					sub := bits.TrailingZeros8(c.ValidMask)
					slab(st).Clusters[i].PPNs[sub] = 1 << 48
					return
				}
			}
			t.Fatal("proc 0's slab has no valid slot")
		},
		// An inline value no Map writes: a reserved bit (51-62) set, and
		// a PPN past what a cluster slot holds.
		"inline reserved bits": func(st *MachineState) { inline(st).Val |= 1 << 51 },
		"inline ppn bound":     func(st *MachineState) { e := inline(st); e.Val |= 1<<48 - 1 },
		"slab free twice": func(st *MachineState) {
			sl := slab(st)
			id := uint64(len(sl.Clusters))
			sl.Clusters = append(sl.Clusters, pt.Cluster{})
			sl.Free = append(sl.Free, id, id)
		},
		// Hash-way geometry the tables would index out of range with, or
		// silently run on to a different fingerprint, and a shared table
		// that lost one of the segment's pages.
		"shared ways":       func(st *MachineState) { shared(st).Cur = shared(st).Cur[:2] },
		"shared rehash ptr": func(st *MachineState) { shared(st).RehashPtr = nil },
		"shared way short":  func(st *MachineState) { w := &shared(st).Cur[0]; w.Slots = w.Slots[:len(w.Slots)-1] },
		"shared next ways":  func(st *MachineState) { shared(st).Next = shared(st).Cur[:1] },
		"shared key cleared": func(st *MachineState) {
			for _, w := range shared(st).Cur {
				for i := range w.Slots {
					if w.Slots[i].Key != cuckoo.EmptyKey {
						w.Slots[i].Key = cuckoo.EmptyKey
						return
					}
				}
			}
		},
		"ecpt ways":      func(st *MachineState) { ecpt4K(st).Cur = ecpt4K(st).Cur[:2] },
		"ecpt way short": func(st *MachineState) { w := &ecpt4K(st).Cur[0]; w.Slots = w.Slots[:len(w.Slots)-1] },
		// Cache sets no run can produce: the ring fill relies on the
		// empties being a suffix of each set, a repeated line holds two
		// ways, and a line in the wrong set can never hit.
		"cache repeated tag": func(st *MachineState) { l1 := st.Procs[0].Cache.Levels[0].Tags; l1[1] = l1[0] },
		"cache empty before valid": func(st *MachineState) {
			l1 := st.Procs[0].Cache.Levels[0].Tags
			l1[0], l1[1] = 0, 1
		},
		"cache wrong set": func(st *MachineState) { st.Procs[0].Cache.Levels[0].Tags[0] += 1 },
		// A radix tree the walker cannot descend: a depth it has no
		// level layout for, and a root entry naming no recorded node.
		"radix depth": func(st *MachineState) { st.Procs[0].Radix.Levels = 9 },
		"radix child range": func(st *MachineState) {
			r := st.Procs[0].Radix
			r.Nodes[0].Entries[0].Child = int32(len(r.Nodes))
		},
		"head past the end": func(st *MachineState) {
			// The stripe's frame count is not a power of two, so the
			// last MaxOrder-aligned block runs past it.
			sp := stripe(st)
			o := sp.MaxOrder
			sp.HeadOrder[(sp.Frames-1)&^(1<<o-1)] = int8(o)
		},
	} {
		src, scfg := m, cfg
		if strings.HasPrefix(name, "radix ") {
			src, scfg = rm, rcfg
		}
		st := src.State()
		mut(st)
		if _, err := RestoreMachine(scfg, st); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s: got %v, want ErrMismatch", name, err)
		}
	}
}

// TestStaleTLBDetection plants an incoherent translation in a bound core's
// TLB and expects the coherence check to report it, for every organization:
// an entry no table backs, and a page the bound tenant maps cached with a
// drifted PPN. This is the white-box seed for the scrubber's tlb-coherence
// class (the shards are unexported, so the seeding lives here).
func TestStaleTLBDetection(t *testing.T) {
	plants := []struct {
		name  string
		plant func(t *testing.T, m *Machine) // seeds core 0's TLBs
		want  string                         // in the reported violation
	}{
		{"unbacked", func(t *testing.T, m *Machine) {
			// A VA far outside every tenant's address space and the shared
			// segment: resident in the TLB, backed by nothing.
			m.shards[0].mmu.TLB.Insert(addr.VirtAddr(0x7f12_3456_7000), addr.Page4K, 1)
		}, "no live translation"},
		{"drifted", func(t *testing.T, m *Machine) {
			found := false
			m.procs[m.sched.Incumbent(0)].table.(mappingVisitor).VisitMappings(func(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) {
				if !found {
					found = true
					m.shards[0].mmu.TLB.Insert(vpn.Addr(s), s, uint64(ppn)+1)
				}
			})
			if !found {
				t.Fatal("core 0's tenant maps nothing")
			}
		}, "but the table resolves"},
	}
	for _, org := range []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT} {
		t.Run(org.String(), func(t *testing.T) {
			for _, pl := range plants {
				t.Run(pl.name, func(t *testing.T) {
					m, err := NewMachine(ckptConfig(org, 2))
					if err != nil {
						t.Fatalf("NewMachine: %v", err)
					}
					for i := 0; i < 2; i++ {
						if err := m.StepRound(); err != nil {
							t.Fatalf("StepRound: %v", err)
						}
					}
					if bad := m.CheckShardTLBs(); len(bad) != 0 {
						t.Fatalf("healthy machine reports TLB violations: %v", bad)
					}
					pl.plant(t, m)
					bad := m.CheckShardTLBs()
					if len(bad) == 0 {
						t.Fatalf("%s TLB entry not detected", pl.name)
					}
					for _, b := range bad {
						if !strings.Contains(b, pl.want) {
							t.Errorf("violation %q does not report %q", b, pl.want)
						}
					}
				})
			}
		})
	}
}

// TestStuckDetection corrupts the serialized live count and expects the
// restored machine's first idle round to surface ErrStuck instead of
// spinning forever.
func TestStuckDetection(t *testing.T) {
	cfg := ckptConfig(sim.Radix, 1)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	res := runToEnd(t, m)
	if res == nil {
		t.Fatal("no result")
	}
	st := m.State()
	st.Live = 1 // drifted live count: claims a tenant still runs
	corrupt, err := RestoreMachine(cfg, st)
	if err != nil {
		t.Fatalf("RestoreMachine: %v", err)
	}
	if err := corrupt.StepRound(); !errors.Is(err, ErrStuck) {
		t.Fatalf("got %v, want ErrStuck", err)
	}
}
