package osmodel

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/mehpt"
	"repro/internal/phys"
	"repro/internal/radix"
	"repro/internal/tlb"
)

func newProc(t *testing.T, id int, pages int) (*Proc, *mehpt.PageTable) {
	t.Helper()
	mem := phys.NewMemory(1 * addr.GB)
	alloc := phys.NewAllocator(mem, 0)
	cfg := mehpt.DefaultConfig(uint64(id))
	cfg.Rand = rand.New(rand.NewSource(int64(id)))
	pt, err := mehpt.NewPageTable(alloc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		pt.Map(addr.VPN(i*8), addr.Page4K, addr.PPN(i)) // distinct clusters
	}
	return &Proc{ID: id, PT: pt, TLBs: tlb.NewTableIII()}, pt
}

// hart builds a one-core scheduler over procs with procs[0] already bound,
// the single-hart starting point: the next visit to another process is a
// context switch.
func hart(costs SwitchCosts, procs ...*Proc) *MultiCore {
	s := NewMultiCore(costs, 1, 1, procs...)
	s.Visit(0)
	return s
}

func TestSwitchChargesL2PEntries(t *testing.T) {
	pa, pta := newProc(t, 1, 10_000)
	pb, ptb := newProc(t, 2, 100)
	s := hart(DefaultSwitchCosts(), pa, pb)
	_, cycles, switched := s.Visit(1)
	if !switched {
		t.Fatal("visit to another process did not switch")
	}
	wantEntries := pta.L2PSaveRestoreEntries() + ptb.L2PSaveRestoreEntries()
	want := DefaultSwitchCosts().Base + uint64(wantEntries)*DefaultSwitchCosts().PerL2PEntry
	if cycles != want {
		t.Errorf("switch cycles = %d, want %d (%d L2P entries)", cycles, want, wantEntries)
	}
	if s.Incumbent(0) != 1 {
		t.Error("current process not switched")
	}
}

func TestSwitchToSelfIsFree(t *testing.T) {
	pa, _ := newProc(t, 1, 100)
	pb, _ := newProc(t, 2, 100)
	s := hart(DefaultSwitchCosts(), pa, pb)
	if _, c, _ := s.Visit(0); c != 0 {
		t.Errorf("self-switch cost = %d", c)
	}
	if s.Stats().Switches != 1 {
		t.Error("self-switch counted")
	}
}

func TestSwitchFlushesTLBs(t *testing.T) {
	pa, _ := newProc(t, 1, 100)
	pb, _ := newProc(t, 2, 100)
	va := addr.VirtAddr(0x1000)
	s := hart(DefaultSwitchCosts(), pa, pb)
	pa.TLBs.Insert(va, addr.Page4K, 1)
	s.Visit(1)
	if r, _, _ := pa.TLBs.Lookup(va, addr.Page4K); r != tlb.MissAll {
		t.Error("outgoing process's TLBs not flushed")
	}
}

func TestNoFlushWhenDisabled(t *testing.T) {
	pa, _ := newProc(t, 1, 100)
	pb, _ := newProc(t, 2, 100)
	va := addr.VirtAddr(0x1000)
	costs := DefaultSwitchCosts()
	costs.FlushTLBs = false // ASID-tagged TLBs
	s := hart(costs, pa, pb)
	pa.TLBs.Insert(va, addr.Page4K, 1)
	s.Visit(1)
	if r, _, _ := pa.TLBs.Lookup(va, addr.Page4K); r == tlb.MissAll {
		t.Error("TLBs flushed despite ASIDs")
	}
}

// TestRadixCarriesNoL2P: non-HPT page tables have no MMU table state, so a
// radix pair switches at the base cost.
func TestRadixCarriesNoL2P(t *testing.T) {
	mem := phys.NewMemory(256 * addr.MB)
	alloc := phys.NewAllocator(mem, 0)
	rp1, _ := radix.NewPageTable(alloc)
	rp2, _ := radix.NewPageTable(alloc)
	s := hart(DefaultSwitchCosts(),
		&Proc{ID: 1, PT: &radixMapper{rp1}},
		&Proc{ID: 2, PT: &radixMapper{rp2}})
	_, cycles, _ := s.Visit(1)
	if cycles != DefaultSwitchCosts().Base {
		t.Errorf("radix switch = %d, want base %d", cycles, DefaultSwitchCosts().Base)
	}
}

// TestRoundRobin: cycling one core through three processes switches on
// every visit after the first, and the L2P transfer stays a small share of
// the switch cost.
func TestRoundRobin(t *testing.T) {
	pa, _ := newProc(t, 1, 1000)
	pb, _ := newProc(t, 2, 1000)
	pc, _ := newProc(t, 3, 1000)
	s := hart(DefaultSwitchCosts(), pa, pb, pc)
	first := s.Stats()
	var total uint64
	for i := 1; i <= 30; i++ {
		_, c, _ := s.Visit(i % 3)
		total += c
	}
	st := s.Stats()
	if n := st.Switches - first.Switches; n != 30 {
		t.Errorf("switches = %d", n)
	}
	if got := st.SwitchCycles - first.SwitchCycles; total != got {
		t.Errorf("summed visit cycles %d != stats %d", total, got)
	}
	if st.L2PEntriesSum == first.L2PEntriesSum {
		t.Error("no L2P entries transferred")
	}
	// Section V-C: the L2P component is a small share of the switch.
	if st.L2PCyclesTotal*2 > st.SwitchCycles {
		t.Errorf("L2P transfer (%d cyc) dominates switching (%d cyc); paper says modest",
			st.L2PCyclesTotal, st.SwitchCycles)
	}
}

// TestSwitchErrors: a scheduler position that would switch to a process
// that does not exist is rejected at restore instead of panicking on the
// next visit.
func TestSwitchErrors(t *testing.T) {
	pa, _ := newProc(t, 1, 10)
	pb, _ := newProc(t, 2, 10)
	s := hart(DefaultSwitchCosts(), pa, pb)
	s.NextRound()
	good := s.State()
	if _, err := RestoreMultiCore(DefaultSwitchCosts(), 1, good, pa, pb); err != nil {
		t.Fatalf("intact state: %v", err)
	}
	for name, mut := range map[string]func(*MultiCoreState){
		"incumbent range": func(st *MultiCoreState) { st.Incumbent[0] = 5 },
		"incumbent below": func(st *MultiCoreState) { st.Incumbent[0] = -2 },
		"incumbents":      func(st *MultiCoreState) { st.Incumbent = append(st.Incumbent, 0) },
		"perm range":      func(st *MultiCoreState) { st.Perm[0] = 5 },
		"perm negative":   func(st *MultiCoreState) { st.Perm[0] = -1 },
		"perm duplicate":  func(st *MultiCoreState) { st.Perm[0] = st.Perm[1] },
		"perm length":     func(st *MultiCoreState) { st.Perm = st.Perm[1:] },
	} {
		st := s.State()
		mut(&st)
		if _, err := RestoreMultiCore(DefaultSwitchCosts(), 1, st, pa, pb); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}

// --- MultiCore scheduler ---

func newMultiProcs(t *testing.T, n, pages int) []*Proc {
	t.Helper()
	procs := make([]*Proc, n)
	for i := range procs {
		p, _ := newProc(t, i+1, pages)
		p.ID = i
		procs[i] = p
	}
	return procs
}

// TestMultiCoreOrderIgnoresCoreCount: the canonical per-round visit order is
// a function of (seed, round) only — schedulers built over the same process
// set with the same seed but different core counts draw identical
// permutations forever. This is the invariant the multi-tenant fingerprint
// rests on.
func TestMultiCoreOrderIgnoresCoreCount(t *testing.T) {
	const procs, rounds = 7, 50
	orders := make([][][]int, 0, 3)
	for _, cores := range []int{1, 3, 8} {
		ps := newMultiProcs(t, procs, 10)
		m := NewMultiCore(DefaultSwitchCosts(), cores, 12345, ps...)
		var all [][]int
		for r := 0; r < rounds; r++ {
			all = append(all, append([]int(nil), m.NextRound()...))
		}
		orders = append(orders, all)
	}
	for i := 1; i < len(orders); i++ {
		for r := range orders[0] {
			for k := range orders[0][r] {
				if orders[i][r][k] != orders[0][r][k] {
					t.Fatalf("round %d: order diverges across core counts: %v vs %v",
						r, orders[0][r], orders[i][r])
				}
			}
		}
	}
}

// TestMultiCoreRoundIsPermutation: every round visits each process exactly
// once, and different seeds give different schedules.
func TestMultiCoreRoundIsPermutation(t *testing.T) {
	ps := newMultiProcs(t, 9, 10)
	m := NewMultiCore(DefaultSwitchCosts(), 4, 1, ps...)
	seen := make([]bool, 9)
	for _, pid := range m.NextRound() {
		if pid < 0 || pid >= 9 || seen[pid] {
			t.Fatalf("round is not a permutation: pid %d", pid)
		}
		seen[pid] = true
	}
	ps2 := newMultiProcs(t, 9, 10)
	m2 := NewMultiCore(DefaultSwitchCosts(), 4, 2, ps2...)
	diff := false
	for r := 0; r < 5 && !diff; r++ {
		a := append([]int(nil), m.NextRound()...)
		b := m2.NextRound()
		for i := range a {
			if a[i] != b[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("seeds 1 and 2 drew identical schedules for 5 rounds")
	}
}

// TestMultiCorePinning: pid is pinned to pid mod C, so placement never
// depends on history.
func TestMultiCorePinning(t *testing.T) {
	ps := newMultiProcs(t, 10, 10)
	m := NewMultiCore(DefaultSwitchCosts(), 4, 1, ps...)
	for pid := 0; pid < 10; pid++ {
		if got := m.CoreOf(pid); got != pid%4 {
			t.Errorf("CoreOf(%d) = %d, want %d", pid, got, pid%4)
		}
	}
}

// TestMultiCoreVisitAccounting: the first visit switches (base + L2P cost),
// an incumbent revisit is free, and displacing the incumbent charges both
// processes' L2P entries.
func TestMultiCoreVisitAccounting(t *testing.T) {
	ps := newMultiProcs(t, 3, 500) // 3 procs, 1 core: constant displacement
	m := NewMultiCore(DefaultSwitchCosts(), 1, 1, ps...)
	core, cycles, switched := m.Visit(0)
	if core != 0 || !switched {
		t.Fatalf("first Visit = core %d switched %v", core, switched)
	}
	in := ps[0].PT.(L2PCarrier).L2PSaveRestoreEntries()
	want := DefaultSwitchCosts().Base + uint64(in)*DefaultSwitchCosts().PerL2PEntry
	if cycles != want {
		t.Errorf("first switch cycles = %d, want %d (no outgoing process)", cycles, want)
	}
	if _, c, sw := m.Visit(0); c != 0 || sw {
		t.Errorf("incumbent revisit charged %d cycles, switched=%v", c, sw)
	}
	_, cycles, _ = m.Visit(1)
	both := in + ps[1].PT.(L2PCarrier).L2PSaveRestoreEntries()
	want = DefaultSwitchCosts().Base + uint64(both)*DefaultSwitchCosts().PerL2PEntry
	if cycles != want {
		t.Errorf("displacement cycles = %d, want %d (save + restore)", cycles, want)
	}
	if m.Incumbent(0) != 1 {
		t.Errorf("incumbent = %d, want 1", m.Incumbent(0))
	}
	if st := m.Stats(); st.Switches != 2 {
		t.Errorf("switches = %d, want 2", st.Switches)
	}
}

// TestMultiCoreEnoughCores: with C >= P every process keeps its core, so
// after the first rounds no further switches happen — the scheduler models
// dedicated-core tenancy for free.
func TestMultiCoreEnoughCores(t *testing.T) {
	ps := newMultiProcs(t, 4, 100)
	m := NewMultiCore(DefaultSwitchCosts(), 4, 1, ps...)
	for r := 0; r < 3; r++ {
		for _, pid := range m.NextRound() {
			m.Visit(pid)
		}
	}
	if st := m.Stats(); st.Switches != 4 {
		t.Errorf("switches = %d, want 4 (one initial bind per core)", st.Switches)
	}
}

// TestMultiCoreVisitFlushesDisplacedTLBs: the first visit to a core
// displaces nothing, and a later displacement flushes the outgoing
// process's TLBs.
func TestMultiCoreVisitFlushesDisplacedTLBs(t *testing.T) {
	ps := newMultiProcs(t, 2, 100)
	va := addr.VirtAddr(0x1000)
	m := NewMultiCore(DefaultSwitchCosts(), 1, 1, ps...)
	m.Visit(0)
	ps[0].TLBs.Insert(va, addr.Page4K, 1)
	m.Visit(1)
	if r, _, _ := ps[0].TLBs.Lookup(va, addr.Page4K); r != tlb.MissAll {
		t.Error("displaced process's TLBs not flushed")
	}
}
