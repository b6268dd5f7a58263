package sim

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/mmu"
)

// stuckMMU wraps a real MMU but keeps faulting on one poisoned address, as
// if the OS fault handler had installed a mapping the walker cannot see.
type stuckMMU struct {
	MMU
	poison addr.VirtAddr
}

const stuckCycles = 10

func (s stuckMMU) Translate(va addr.VirtAddr) mmu.Result {
	if va == s.poison {
		return mmu.Result{Cycles: stuckCycles, Fault: true}
	}
	return s.MMU.Translate(va)
}

// TranslateBatchPAs stops the batch at the poisoned element, handing it to
// TranslateWalk as a full TLB miss.
func (s stuckMMU) TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64) {
	for i, va := range vas {
		if va == s.poison {
			if i == 0 {
				return 0, 0, 0
			}
			vas = vas[:i]
			break
		}
	}
	return s.MMU.TranslateBatchPAs(vas, pas)
}

func (s stuckMMU) TranslateWalk(va addr.VirtAddr, missLat uint64) mmu.Result {
	if va == s.poison {
		return mmu.Result{Cycles: missLat + stuckCycles, Fault: true}
	}
	return s.MMU.TranslateWalk(va, missLat)
}

// stuckMachine builds a machine whose MMU never resolves poison.
func stuckMachine(t *testing.T, poison addr.VirtAddr) *Machine {
	t.Helper()
	m, err := NewMachine(batchCfg(Radix, ""))
	if err != nil {
		t.Fatal(err)
	}
	m.eng.MMU = stuckMMU{MMU: m.eng.MMU, poison: poison}
	return m
}

// TestEngineFaultPersisted: a reference that still faults after the OS
// handled it stops the engine with ErrFaultPersisted. The references before
// it complete and are counted; the failing one is charged its translation
// and fault-handling cycles but not counted, and nothing after it runs.
func TestEngineFaultPersisted(t *testing.T) {
	base := addr.VirtAddr(0x4000_0000)
	poison := base + 7*4096
	vas := []addr.VirtAddr{base, base + 4096, base, base + 2*4096, poison, base + 3*4096}

	m := stuckMachine(t, poison)
	var tl Tally
	err := m.eng.Run(vas, &tl)
	if !errors.Is(err, ErrFaultPersisted) {
		t.Fatalf("Run error = %v, want ErrFaultPersisted", err)
	}
	if tl.Accesses != 4 {
		t.Errorf("Accesses = %d, want the 4 references before the poisoned one", tl.Accesses)
	}
	if got := m.eng.OS.Stats().Faults; got != 4 {
		t.Errorf("OS handled %d faults, want 4 (3 fresh pages + the poisoned one)", got)
	}
	if tl.OSCycles == 0 || tl.XlatCycles < 2*stuckCycles {
		t.Errorf("failing reference not charged: %+v", tl)
	}
	if _, ok := m.table.Translate(base + 3*4096); ok {
		t.Error("engine ran a reference after the failing one")
	}

	// The simulator reports the sentinel's message as its fail reason and,
	// unlike the tenant driver, counts the reference that failed.
	res := stuckMachine(t, poison).RunBatches(func(out []addr.VirtAddr) int {
		n := copy(out, vas)
		vas = vas[n:]
		return n
	})
	if !res.Failed || res.FailReason != "fault persisted after OS handling" {
		t.Fatalf("Failed=%v FailReason=%q", res.Failed, res.FailReason)
	}
	if res.Accesses != 5 {
		t.Errorf("sim Accesses = %d, want 5", res.Accesses)
	}
}

// TestEngineLongBatch: Run accepts inputs wider than the translation
// pipeline and matches the fill-1 run on them, including TLB-hit runs
// longer than one pipeline batch.
func TestEngineLongBatch(t *testing.T) {
	vas := batchTestVAs(5, 100)
	base := addr.VirtAddr(0x4000_0000)
	for i := 0; i < 3*mmu.BatchWidth+17; i++ {
		vas = append(vas, base+addr.VirtAddr(i%8)*4096)
	}
	want := batchedRun(t, batchCfg(ECPT, ""), vas, 1)
	m := oracleMachine(t, batchCfg(ECPT, ""))
	var tl Tally
	if err := m.eng.Run(vas, &tl); err != nil {
		t.Fatal(err)
	}
	fill1 := Tally{Accesses: want.Accesses, XlatCycles: want.XlatCycles,
		DataCycles: want.DataCycles, OSCycles: want.OSCycles}
	if tl != fill1 {
		t.Errorf("long batch %+v, fill-1 run %+v", tl, fill1)
	}
	if ms, rs := m.eng.MMU.Stats(), want.MMU; ms != rs {
		t.Errorf("MMU stats diverge: engine %+v, fill-1 run %+v", ms, rs)
	}
}
