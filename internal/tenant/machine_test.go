package tenant

// Checkpoint/restore proof obligations: a machine snapshotted at a round
// boundary and restored from disk must finish with the bit-identical
// fingerprint of the uninterrupted run — per organization, per core count,
// with fault injection armed — and a snapshot restored under the wrong
// identity must be refused with ErrMismatch.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/bits"
	"path/filepath"
	"reflect"
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

// ResizeConfig is one tenant whose ECPT and ME-HPT tables are in the
// middle of an upsize at the end of rounds four and five, so a checkpoint
// taken there carries rehash pointers, target ways and, for ECPT, two way
// groups. It is exported for the restore fuzzer in package tenant_test.
func ResizeConfig(org sim.Org) Config {
	return Config{
		Org:             org,
		Processes:       1,
		Cores:           1,
		MemBytes:        64 * addr.MB,
		Stripes:         2,
		Seed:            42,
		AccessesPerProc: 6000,
		Quantum:         512,
		Scale:           64,
		SharedPages:     64,
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

// TestGoldenRoundTrip snapshots a machine after each of its first rounds,
// restores it from disk, and requires the round trip to be exact (see
// roundTrips), for every organization and core count, and for the
// mid-resize config at the rounds its tables resize through.
func TestGoldenRoundTrip(t *testing.T) {
	for _, org := range []sim.Org{sim.MEHPT, sim.ECPT, sim.Radix} {
		for _, cores := range []int{1, 3} {
			t.Run(org.String()+"/"+string(rune('0'+cores))+"c", func(t *testing.T) {
				roundTrips(t, ckptConfig(org, cores), 0, 3)
			})
		}
		t.Run(org.String()+"/resize", func(t *testing.T) {
			roundTrips(t, ResizeConfig(org), 3, 6)
		})
	}
}

// TestRoundTripUnderInjection proves the injector's generators and counters
// cross the checkpoint: an injected run resumed mid-run must reproduce the
// uninterrupted injected run exactly.
func TestRoundTripUnderInjection(t *testing.T) {
	for _, org := range []sim.Org{sim.MEHPT, sim.ECPT, sim.Radix} {
		for _, cores := range []int{1, 3} {
			t.Run(org.String()+"/"+string(rune('0'+cores))+"c", func(t *testing.T) {
				// rate=0.001 at this scale fails some tenants and spares
				// others, so the checkpoint carries both failed
				// ProcResults and live generators.
				cfg := ckptConfig(org, cores)
				cfg.Inject = "rate=0.001"
				roundTrips(t, cfg, 0, 3)
			})
		}
	}
}

// gobState is the encoding of st a checkpoint carries.
func gobState(t *testing.T, st *MachineState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatalf("encoding a state: %v", err)
	}
	return buf.Bytes()
}

// roundTrips checkpoints cfg's machine to disk after each round from first
// to last and restores every checkpoint. The restored machine must
// re-capture the checkpointed state: the same encoded bytes and, in
// memory, a state reflect.DeepEqual to the original's, which also catches
// an unexported state field gob drops. It must then finish on the state
// and fingerprint of the uninterrupted run.
func roundTrips(t *testing.T, cfg Config, first, last int) {
	t.Helper()
	base, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ref, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if fp := runToEnd(t, ref).Fingerprint; fp != base.Fingerprint {
		t.Fatalf("stepped machine diverged from Run: %s vs %s", fp, base.Fingerprint)
	}
	final := gobState(t, ref.State())

	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	for round := 0; round <= last; round++ {
		if m.Done() {
			t.Fatalf("machine finished before round %d", round)
		}
		if round >= first {
			path := filepath.Join(t.TempDir(), "mid.ckpt")
			if err := m.Checkpoint(path); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			restored, err := LoadMachine(cfg, path)
			if err != nil {
				t.Fatalf("round %d: LoadMachine: %v", round, err)
			}
			orig, again := m.State(), restored.State()
			if !bytes.Equal(gobState(t, orig), gobState(t, again)) {
				t.Fatalf("round %d: the restored machine's state encodes differently", round)
			}
			if !reflect.DeepEqual(orig, again) {
				t.Fatalf("round %d: the restored machine's state differs in memory", round)
			}
			if fp := runToEnd(t, restored).Fingerprint; fp != base.Fingerprint {
				t.Fatalf("round %d: restored machine diverged: %s vs %s", round, fp, base.Fingerprint)
			}
			if !bytes.Equal(gobState(t, restored.State()), final) {
				t.Fatalf("round %d: restored machine finished on another state than the uninterrupted run", round)
			}
		}
		if err := m.StepRound(); err != nil {
			t.Fatalf("StepRound: %v", err)
		}
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

	// The ME-HPT mutations run on an ME-HPT machine.
	mcfg := ckptConfig(sim.MEHPT, 2)
	mm, err := NewMachine(mcfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if err := mm.StepRound(); err != nil {
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
	// sharedSlot returns a used slot of the shared table's first way.
	sharedSlot := func(st *MachineState) int {
		for i, e := range shared(st).Cur[0].Slots {
			if e.Key != cuckoo.EmptyKey {
				return i
			}
		}
		t.Fatal("the shared table's first way is empty")
		return 0
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
		// ECPT way groups that do not back the cuckoo ways: the first
		// two panicked in the first round, the last two ran on to a
		// machine the scrubber flags.
		"ecpt groups empty": func(st *MachineState) { st.Procs[0].ECPT.Tables[0].Groups = nil },
		"ecpt bases short": func(st *MachineState) {
			g := &st.Procs[0].ECPT.Tables[0].Groups[0]
			g.Bases = g.Bases[:1]
		},
		"ecpt one way":        func(st *MachineState) { st.Procs[0].ECPT.Tables[0].Ways = 1 },
		"ecpt entries double": func(st *MachineState) { st.Procs[0].ECPT.Tables[0].Groups[0].EntriesPerWay *= 2 },
		// A page size past the table array's bounds, and a second table
		// of one size.
		"table size negative": func(st *MachineState) { st.Procs[0].ECPT.Tables[0].Size = -1 },
		"table size repeated": func(st *MachineState) {
			ts := st.Procs[0].ECPT.Tables
			st.Procs[0].ECPT.Tables = append(ts, ts[0])
		},
		"mehpt table size negative": func(st *MachineState) { st.Procs[0].MEHPT.Tables[0].Size = -1 },
		// Chunk stores that do not cover their way: a divide by zero, an
		// index out of range, and slot offsets past the way.
		"mehpt chunk bytes zero":  func(st *MachineState) { st.Procs[0].MEHPT.Tables[0].Ways[0].Store.ChunkBytes = 0 },
		"mehpt chunk bytes one":   func(st *MachineState) { st.Procs[0].MEHPT.Tables[0].Ways[0].Store.ChunkBytes = 1 },
		"mehpt chunks truncated":  func(st *MachineState) { st.Procs[0].MEHPT.Tables[0].Ways[0].Store.Chunks = nil },
		"mehpt way bytes zero":    func(st *MachineState) { st.Procs[0].MEHPT.Tables[0].Ways[0].Store.WayBytes = 0 },
		"mehpt way bytes one":     func(st *MachineState) { st.Procs[0].MEHPT.Tables[0].Ways[0].Store.WayBytes = 1 },
		"mehpt store page size":   func(st *MachineState) { st.Procs[0].MEHPT.Tables[0].Ways[0].Store.Size = -1 },
		"mehpt occupancy counter": func(st *MachineState) { st.Procs[0].MEHPT.Tables[0].Ways[0].Occ++ },
		"mehpt slot moved": func(st *MachineState) {
			slots := st.Procs[0].MEHPT.Tables[0].Ways[0].Slots
			for i := range slots {
				if slots[i].Key != cuckoo.EmptyKey {
					j := (i + 1) % len(slots)
					slots[i], slots[j] = slots[j], slots[i]
					return
				}
			}
		},
		// A tree with no root, and stats that miscount its nodes.
		"radix nodes truncated": func(st *MachineState) { st.Procs[0].Radix.Nodes = nil },
		"radix node count":      func(st *MachineState) { st.Procs[0].Radix.Stats.Nodes++ },
		// Free maps whose blocks overlap or whose counters disagree: the
		// first panicked with a double free.
		"head inside free block": func(st *MachineState) {
			sp := stripe(st)
			for f, o := range sp.HeadOrder {
				if o >= 1 {
					sp.HeadOrder[f+1] = 0
					return
				}
			}
			t.Fatal("stripe 0 has no free block of two frames or more")
		},
		"free block counter": func(st *MachineState) { stripe(st).FreeBlk[0]++ },
		"free page counter":  func(st *MachineState) { stripe(st).FreePages-- },
		"stripes truncated":  func(st *MachineState) { st.Pool.Stripes = st.Pool.Stripes[:1] },
		// Blocks the pool does not show as granted, or grants twice: each
		// is freed sooner or later, and freeing it panics.
		"shared frame beyond pool": func(st *MachineState) { shared(st).Cur[0].Slots[sharedSlot(st)].Val = 1 << 40 },
		"shared frame twice": func(st *MachineState) {
			w := shared(st).Cur[0]
			i := sharedSlot(st)
			for j := range w.Slots {
				if j != i && w.Slots[j].Key != cuckoo.EmptyKey {
					w.Slots[j].Val = w.Slots[i].Val
					return
				}
			}
		},
		"ecpt base beyond pool": func(st *MachineState) { st.Procs[0].ECPT.Tables[0].Groups[0].Bases[0] = 1 << 40 },
		// Shared ways or slots out of hash order: a lookup misses a
		// mapped page and the shared access panicked.
		"shared ways swapped": func(st *MachineState) {
			ts := shared(st)
			ts.Cur[0], ts.Cur[1] = ts.Cur[1], ts.Cur[0]
			ts.RehashPtr[0], ts.RehashPtr[1] = ts.RehashPtr[1], ts.RehashPtr[0]
			if ts.Next != nil {
				ts.Next[0], ts.Next[1] = ts.Next[1], ts.Next[0]
			}
		},
		"shared slot moved": func(st *MachineState) {
			w := shared(st).Cur[0]
			i := sharedSlot(st)
			j := (i + 1) % len(w.Slots)
			w.Slots[i], w.Slots[j] = w.Slots[j], w.Slots[i]
		},
		// A live count the scheduler loop never reaches zero from, and a
		// generator position whose replay would not end.
		"live negative":  func(st *MachineState) { st.Live = -1 },
		"live above":     func(st *MachineState) { st.Live = cfg.Processes + 1 },
		"draws too many": func(st *MachineState) { st.SharedRemapRNG.Draws = 1 << 40 },
	} {
		src, scfg := m, cfg
		if strings.HasPrefix(name, "radix ") {
			src, scfg = rm, rcfg
		}
		if strings.HasPrefix(name, "mehpt ") {
			src, scfg = mm, mcfg
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
