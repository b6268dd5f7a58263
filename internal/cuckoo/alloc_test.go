package cuckoo

import "testing"

// TestLookupSlotAllocFree guards ECPT's walk probe on its rare branch, a
// hit in a resize target: keys are inserted until a migration is under way
// and some key already lives in the new ways, and only those keys are
// looked up.
func TestLookupSlotAllocFree(t *testing.T) {
	tb := newTestTable(t)
	var inNext []uint64
	for k := uint64(0); len(inNext) == 0; k++ {
		if k == 1<<16 {
			t.Fatal("no key landed in a resize target")
		}
		if _, err := tb.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
		for j := uint64(0); j <= k; j++ {
			if _, s, _ := tb.LookupSlot(j); s.InNext {
				inNext = append(inNext, j)
			}
		}
	}
	var i int
	if n := testing.AllocsPerRun(1000, func() {
		k := inNext[i]
		i = (i + 1) % len(inNext)
		if v, s, ok := tb.LookupSlot(k); !ok || !s.InNext || v != k*10 {
			t.Fatalf("LookupSlot(%d) = %d,%+v,%v", k, v, s, ok)
		}
	}); n != 0 {
		t.Errorf("LookupSlot into a resize target allocates %v objects per call", n)
	}
}
