package cwc

import (
	"testing"

	"repro/internal/addr"
)

func TestWaySet(t *testing.T) {
	var s WaySet
	s = s.Add(0).Add(2)
	if !s.Has(0) || s.Has(1) || !s.Has(2) {
		t.Errorf("membership wrong: %b", s)
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.Add(2) != s || s.Add(1).Count() != 3 {
		t.Errorf("Add not idempotent or not counted: %b", s)
	}
}

func TestNoteAndCandidates(t *testing.T) {
	ct := NewTables()
	va := addr.VirtAddr(0x4000_0000)
	ct.Note(va, addr.Page4K, 1)
	c := ct.Candidates(va)
	if !c[addr.Page4K].Has(1) {
		t.Error("4KB way 1 not a candidate")
	}
	if c[addr.Page2M] != 0 || c[addr.Page1G] != 0 {
		t.Error("phantom candidates for unused sizes")
	}
	if ct.TotalProbes(va) != 1 {
		t.Errorf("probes = %d, want 1", ct.TotalProbes(va))
	}
	// A different 2MB region in the same 1GB region has no 4KB candidates.
	if c2 := ct.Candidates(va + 2*addr.MB); c2[addr.Page4K] != 0 {
		t.Error("4KB candidacy leaked across 2MB regions")
	}
}

func TestGrainSeparation(t *testing.T) {
	ct := NewTables()
	va := addr.VirtAddr(0x8000_0000)
	ct.Note(va, addr.Page2M, 0)
	// 2MB pages are tracked at 1GB grain: a VA 500MB away in the same 1GB
	// region shares the candidacy.
	same := va + 500*addr.MB
	if uint64(va)>>30 != uint64(same)>>30 {
		t.Fatal("test addresses not in same 1GB region")
	}
	if c := ct.Candidates(same); !c[addr.Page2M].Has(0) {
		t.Error("2MB candidacy not visible at 1GB grain")
	}
	if c := ct.Candidates(va + 2*addr.GB); c[addr.Page2M] != 0 {
		t.Error("2MB candidacy leaked across 1GB regions")
	}
}

func TestDropClearsWhenLastLeaves(t *testing.T) {
	ct := NewTables()
	va1 := addr.VirtAddr(0x4000_0000)
	va2 := va1 + 4096 // same 2MB region
	ct.Note(va1, addr.Page4K, 0)
	ct.Note(va2, addr.Page4K, 2)
	ct.Drop(va1, addr.Page4K)
	// One translation remains: the (conservative) candidates stay.
	if c := ct.Candidates(va2); c[addr.Page4K].Count() == 0 {
		t.Error("candidates cleared while a translation remains")
	}
	ct.Drop(va2, addr.Page4K)
	if c := ct.Candidates(va2); c[addr.Page4K] != 0 {
		t.Error("candidates survive after the last translation left")
	}
	if pmd, _ := ct.Entries(); pmd != 0 {
		t.Errorf("empty region entry not reclaimed: %d", pmd)
	}
}

func TestMovedAddsWay(t *testing.T) {
	ct := NewTables()
	va := addr.VirtAddr(0x1000_0000)
	ct.Note(va, addr.Page4K, 0)
	ct.Moved(va, addr.Page4K, 2)
	c := ct.Candidates(va)
	if !c[addr.Page4K].Has(2) {
		t.Error("moved-to way not a candidate")
	}
	// The old way stays conservatively set.
	if !c[addr.Page4K].Has(0) {
		t.Error("conservative old-way bit dropped")
	}
}

func TestZeroCandidatesMeansFault(t *testing.T) {
	ct := NewTables()
	if ct.TotalProbes(0xDEAD_BEEF_000) != 0 {
		t.Error("unmapped VA has probe candidates")
	}
}

func TestMultiSizeRegion(t *testing.T) {
	ct := NewTables()
	va := addr.VirtAddr(0x4000_0000)
	ct.Note(va, addr.Page4K, 0)
	ct.Note(va, addr.Page2M, 1)
	if p := ct.TotalProbes(va); p != 2 {
		t.Errorf("probes = %d, want 2 (one per size)", p)
	}
}
