package osmodel

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/mehpt"
	"repro/internal/phys"
	"repro/internal/radix"
)

func newOS(t *testing.T, cfg Config) (*OS, *phys.Memory) {
	t.Helper()
	mem := phys.NewMemory(2 * addr.GB)
	alloc := phys.NewAllocator(mem, 0)
	pcfg := mehpt.DefaultConfig(3)
	pcfg.Rand = rand.New(rand.NewSource(1))
	pt, err := mehpt.NewPageTable(alloc, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, pt, alloc), mem
}

func TestFaultMapsPage(t *testing.T) {
	o, _ := newOS(t, DefaultConfig())
	va := addr.VirtAddr(0x1234_5678)
	cycles, err := o.HandleFault(va)
	if err != nil {
		t.Fatal(err)
	}
	if cycles < DefaultConfig().FaultOverhead {
		t.Errorf("fault cost %d below kernel overhead", cycles)
	}
	tr, ok := o.pt.Translate(va)
	if !ok || tr.Size != addr.Page4K {
		t.Fatalf("fault did not map: %+v %v", tr, ok)
	}
	if o.Stats().Faults != 1 {
		t.Errorf("faults = %d", o.Stats().Faults)
	}
}

func TestTHPMapsHugePage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.THP = true
	cfg.THPFraction = 1.0
	o, _ := newOS(t, cfg)
	va := addr.VirtAddr(0x4000_1234)
	if _, err := o.HandleFault(va); err != nil {
		t.Fatal(err)
	}
	tr, ok := o.pt.Translate(va)
	if !ok || tr.Size != addr.Page2M {
		t.Fatalf("THP fault mapped %v, want 2MB", tr.Size)
	}
	if o.Stats().HugeFaults != 1 {
		t.Errorf("huge faults = %d", o.Stats().HugeFaults)
	}
	// The whole 2MB region is now mapped: a neighbouring page is covered.
	if _, ok := o.pt.Translate(va + 1*addr.MB); !ok {
		t.Error("2MB mapping does not cover its region")
	}
}

func TestTHPFractionZeroNeverHuge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.THP = true
	cfg.THPFraction = 0
	o, _ := newOS(t, cfg)
	for i := 0; i < 50; i++ {
		o.HandleFault(addr.VirtAddr(uint64(i) * 2 * addr.MB))
	}
	if o.Stats().HugeFaults != 0 {
		t.Errorf("huge faults = %d with fraction 0", o.Stats().HugeFaults)
	}
}

func TestTHPFractionApproximate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.THP = true
	cfg.THPFraction = 0.5
	o, _ := newOS(t, cfg)
	const regions = 400
	for i := 0; i < regions; i++ {
		o.HandleFault(addr.VirtAddr(uint64(i) * 2 * addr.MB))
	}
	frac := float64(o.Stats().HugeFaults) / regions
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("huge fraction = %.2f, want ≈0.5", frac)
	}
}

func TestTHPEligibilityStable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.THP = true
	cfg.THPFraction = 0.5
	o, _ := newOS(t, cfg)
	for r := uint64(0); r < 100; r++ {
		a := o.hugeEligible(r)
		b := o.hugeEligible(r)
		if a != b {
			t.Fatalf("eligibility of region %d not stable", r)
		}
	}
}

// TestTHPFallsBackUnderFragmentation: when no 2MB block exists, the fault
// degrades to a 4KB mapping like Linux THP.
func TestTHPFallsBackUnderFragmentation(t *testing.T) {
	mem := phys.NewMemory(64 * addr.MB)
	fr := phys.NewFragmenter(mem)
	// Shred so that 8KB blocks survive but nothing near 2MB coalesces.
	if err := fr.Fragment(0.9, 0.4, phys.OrderFor(8*addr.KB), rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	alloc := phys.NewAllocator(mem, 0.9)
	pcfg := mehpt.DefaultConfig(3)
	pcfg.Rand = rand.New(rand.NewSource(1))
	pt, err := mehpt.NewPageTable(alloc, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.THP = true
	cfg.THPFraction = 1.0
	o := New(cfg, pt, alloc)
	va := addr.VirtAddr(0x800_0000)
	if _, err := o.HandleFault(va); err != nil {
		t.Fatalf("fault failed outright: %v", err)
	}
	tr, ok := pt.Translate(va)
	if !ok || tr.Size != addr.Page4K {
		t.Fatalf("expected 4KB fallback, got %v,%v", tr.Size, ok)
	}
	if o.Stats().HugeFaults != 0 {
		t.Error("huge fault recorded despite fallback")
	}
}

// faultRegion touches every 4KB page of [va, va+bytes) the way a populate
// pass does: a page that already translates (a huge mapping covers it) is
// skipped, any other faults.
func faultRegion(o *OS, va addr.VirtAddr, bytes uint64) error {
	for cur := va; cur < va+addr.VirtAddr(bytes); cur += 4 * addr.KB {
		if _, ok := o.pt.Translate(cur); ok {
			continue
		}
		if _, err := o.HandleFault(cur); err != nil {
			return err
		}
	}
	return nil
}

func TestPrefaultCoversRegion(t *testing.T) {
	o, _ := newOS(t, DefaultConfig())
	base := addr.VirtAddr(0x10_0000)
	if err := faultRegion(o, base, 64*4096); err != nil {
		t.Fatal(err)
	}
	if o.Stats().Faults != 64 {
		t.Errorf("faults = %d, want 64", o.Stats().Faults)
	}
	for i := 0; i < 64; i++ {
		if _, ok := o.pt.Translate(base + addr.VirtAddr(i*4096)); !ok {
			t.Fatalf("page %d not mapped after faulting the region", i)
		}
	}
	// Touching the region again faults nothing.
	if err := faultRegion(o, base, 64*4096); err != nil {
		t.Fatal(err)
	}
	if o.Stats().Faults != 64 {
		t.Errorf("redundant prefault added faults: %d", o.Stats().Faults)
	}
}

func TestPrefaultWithTHPSkipsByRegion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.THP = true
	cfg.THPFraction = 1.0
	o, _ := newOS(t, cfg)
	if err := faultRegion(o, 0x4000_0000, 8*addr.MB); err != nil {
		t.Fatal(err)
	}
	if got := o.Stats().Faults; got != 4 {
		t.Errorf("faults = %d, want 4 (one per 2MB region)", got)
	}
}

func TestOutOfMemory(t *testing.T) {
	mem := phys.NewMemory(1 * addr.MB)
	alloc := phys.NewAllocator(mem, 0)
	pt, err := radix.NewPageTable(alloc)
	if err != nil {
		t.Fatal(err)
	}
	o := New(DefaultConfig(), &radixMapper{pt}, alloc)
	var sawErr bool
	for i := 0; i < 1000; i++ {
		if _, err := o.HandleFault(addr.VirtAddr(uint64(i) * 4096)); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("1MB machine faulted 1000 pages without error")
	}
}

// radixMapper adapts radix.PageTable to the osmodel.PageTable interface.
type radixMapper struct{ *radix.PageTable }
