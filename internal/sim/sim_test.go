package sim

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/workload"
)

// smallCfg returns a fast configuration for unit tests: a scaled-down BFS
// on a small fragmented machine.
func smallCfg(org Org, name string, thp bool) Config {
	spec, err := workload.ByName(name, 256) // heavy scale-down for tests
	if err != nil {
		panic(err)
	}
	return Config{
		Org:      org,
		Workload: spec,
		THP:      thp,
		Accesses: 200_000,
		Seed:     1,
		MemBytes: 2 * addr.GB,
		FMFI:     0.7,
		Populate: false,
	}
}

func TestRunCompletesAllOrgs(t *testing.T) {
	for _, org := range []Org{Radix, ECPT, MEHPT} {
		res := Run(smallCfg(org, "BFS", false))
		if res.Failed {
			t.Fatalf("%v run failed: %s", org, res.FailReason)
		}
		if res.Accesses != 200_000 {
			t.Errorf("%v accesses = %d", org, res.Accesses)
		}
		if res.Cycles == 0 || res.XlatCycles == 0 || res.DataCycles == 0 {
			t.Errorf("%v cycle accounting empty: %+v", org, res.Cycles)
		}
		if res.OS.Faults == 0 {
			t.Errorf("%v saw no page faults", org)
		}
		if res.MMU.Walks == 0 {
			t.Errorf("%v saw no page walks", org)
		}
	}
}

func TestPopulateMatchesTouchedPages(t *testing.T) {
	cfg := smallCfg(MEHPT, "BFS", false)
	cfg.Accesses = 0
	cfg.Populate = true
	res := Run(cfg)
	if res.Failed {
		t.Fatalf("populate failed: %s", res.FailReason)
	}
	wantPages := cfg.Workload.TouchedBytes / (4 * addr.KB)
	if res.OS.Faults != wantPages {
		t.Errorf("faults = %d, want %d (one per touched page)", res.OS.Faults, wantPages)
	}
	if res.PTFinalBytes == 0 || res.MaxContiguous == 0 {
		t.Error("page-table metrics empty after populate")
	}
}

func TestTHPReducesFaults(t *testing.T) {
	base := smallCfg(MEHPT, "GUPS", false)
	base.Populate = true
	base.Accesses = 0
	noTHP := Run(base)
	base.THP = true
	withTHP := Run(base)
	if noTHP.Failed || withTHP.Failed {
		t.Fatalf("runs failed: %v / %v", noTHP.FailReason, withTHP.FailReason)
	}
	if withTHP.OS.HugeFaults == 0 {
		t.Error("THP run mapped no huge pages")
	}
	if withTHP.OS.Faults >= noTHP.OS.Faults {
		t.Errorf("THP faults %d not below 4KB faults %d", withTHP.OS.Faults, noTHP.OS.Faults)
	}
}

// TestContiguityOrdering is the paper's headline: radix needs only 4KB,
// ME-HPT needs only chunk-sized, ECPT needs whole ways.
func TestContiguityOrdering(t *testing.T) {
	var maxContig [3]uint64
	for _, org := range []Org{Radix, ECPT, MEHPT} {
		cfg := smallCfg(org, "BFS", false)
		cfg.Populate = true
		cfg.Accesses = 0
		res := Run(cfg)
		if res.Failed {
			t.Fatalf("%v failed: %s", org, res.FailReason)
		}
		maxContig[org] = res.MaxContiguous
	}
	if maxContig[Radix] != 4*addr.KB {
		t.Errorf("radix max contiguous = %d, want 4KB", maxContig[Radix])
	}
	if maxContig[MEHPT] >= maxContig[ECPT] {
		t.Errorf("ME-HPT contiguity %d not below ECPT %d", maxContig[MEHPT], maxContig[ECPT])
	}
}

// TestMEHPTUsesLessPTMemoryThanECPT checks the Figure 10 direction.
func TestMEHPTUsesLessPTMemoryThanECPT(t *testing.T) {
	var peak [3]uint64
	for _, org := range []Org{ECPT, MEHPT} {
		cfg := smallCfg(org, "BFS", false)
		cfg.Populate = true
		cfg.Accesses = 0
		res := Run(cfg)
		if res.Failed {
			t.Fatalf("%v failed: %s", org, res.FailReason)
		}
		peak[org] = res.PTPeakBytes
	}
	if peak[MEHPT] >= peak[ECPT] {
		t.Errorf("ME-HPT peak PT memory %d not below ECPT %d", peak[MEHPT], peak[ECPT])
	}
}

// TestDeterminism: the same config yields identical results.
func TestDeterminism(t *testing.T) {
	a := Run(smallCfg(MEHPT, "BFS", false))
	b := Run(smallCfg(MEHPT, "BFS", false))
	if a.Cycles != b.Cycles || a.OS.Faults != b.OS.Faults || a.PTPeakBytes != b.PTPeakBytes {
		t.Errorf("non-deterministic results: %d/%d vs %d/%d",
			a.Cycles, a.OS.Faults, b.Cycles, b.OS.Faults)
	}
}

// TestMemBytesBound: the CLIs' -mem bound takes the whole 46-bit physical
// address space and rejects one gigabyte more, a size whose byte count
// would wrap (2^34 GB multiplies to 0) is rejected, not wrapped, and so is
// 0 GB, which NewMachine would run as its 64 GB default.
func TestMemBytesBound(t *testing.T) {
	if b, err := MemBytes(65536); err != nil || b != 1<<addr.PhysBits {
		t.Errorf("MemBytes(65536) = %d, %v; want %d, nil", b, err, uint64(1)<<addr.PhysBits)
	}
	for _, gb := range []uint64{0, 65537, 1 << 34, 1<<34 + 64, ^uint64(0)} {
		if b, err := MemBytes(gb); !errors.Is(err, ErrMemRange) {
			t.Errorf("MemBytes(%d) = %d, %v; want ErrMemRange", gb, b, err)
		}
	}
}
