package pt

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/addr"
)

func TestClusterKeySubIndex(t *testing.T) {
	f := func(v uint32) bool {
		vpn := addr.VPN(v)
		key := ClusterKey(vpn)
		sub := SubIndex(vpn)
		if sub >= ClusterSpan {
			return false
		}
		return uint64(BaseVPN(key))+uint64(sub) == uint64(vpn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClusterSetGetClear(t *testing.T) {
	var c packedCluster
	for sub := uint(0); sub < ClusterSpan; sub++ {
		if _, ok := c.get(sub); ok {
			t.Fatalf("zero cluster has slot %d valid", sub)
		}
	}
	c.set(3, 1000)
	c.set(7, maxPPN)
	c.set(0, 0)
	for sub, want := range map[uint]addr.PPN{0: 0, 3: 1000, 7: maxPPN} {
		if p, ok := c.get(sub); !ok || p != want {
			t.Errorf("get(%d) = %d,%v, want %d,true", sub, p, ok, want)
		}
	}
	if _, ok := c.get(1); ok {
		t.Error("get(1) valid on unset slot")
	}
	if c.clear(3) || c.clear(0) {
		t.Error("clear reported empty with slot 7 still valid")
	}
	if !c.clear(7) {
		t.Error("clear(7) did not report empty")
	}
	if c != (packedCluster{}) {
		t.Errorf("cluster not empty after clearing all: %+v", c)
	}
}

// TestPackedClusterIsFortyEightBytes pins the host layout: a packed
// cluster plus its 16-byte way slot is the 64-byte entry it simulates.
func TestPackedClusterIsFortyEightBytes(t *testing.T) {
	if got := unsafe.Sizeof(packedCluster{}); got != 48 {
		t.Fatalf("sizeof(packedCluster) = %d, want 48", got)
	}
}

func TestSlabReuse(t *testing.T) {
	var s Slab
	a := s.Alloc()
	b := s.Alloc()
	if a == b {
		t.Fatal("Alloc returned duplicate ids")
	}
	s.At(a).set(0, 42)
	s.Free(a)
	if s.n != 2 || len(s.chunks) != 1 || len(s.free) != 1 {
		t.Errorf("%d clusters in %d chunks, %d free; want 2 in 1, 1", s.n, len(s.chunks), len(s.free))
	}
	c := s.Alloc() // must recycle a, zeroed
	if c != a {
		t.Errorf("expected recycled id %d, got %d", a, c)
	}
	if *s.At(c) != (packedCluster{}) {
		t.Error("recycled cluster not zeroed")
	}
	if s.At(b) == nil {
		t.Error("unrelated cluster lost")
	}
}

func TestSlabPanicsOnBadID(t *testing.T) {
	var s Slab
	defer func() {
		if recover() == nil {
			t.Error("At on bad id did not panic")
		}
	}()
	s.At(5)
}

func TestEntryGeometry(t *testing.T) {
	// One clustered entry is a cache line covering 8 base pages = 32KB of
	// virtual address space.
	if EntryBytes != 64 || ClusterSpan != 8 {
		t.Fatalf("entry geometry changed: %d bytes, span %d", EntryBytes, ClusterSpan)
	}
}

// TestSlabRestoreRejectsUnpackablePPN: Restore takes a PPN up to maxPPN
// and rejects a cluster the packed slab cannot hold, leaving the slab as
// it was.
func TestSlabRestoreRejectsUnpackablePPN(t *testing.T) {
	ok := Cluster{ValidMask: 1 << 2}
	ok.PPNs[2] = maxPPN
	var s Slab
	if err := s.Restore(SlabState{Clusters: []Cluster{ok}}); err != nil {
		t.Fatalf("Restore of PPN %#x: %v", uint64(maxPPN), err)
	}
	tooBig := ok
	tooBig.PPNs[2] = maxPPN + 1
	stray := Cluster{}
	stray.PPNs[5] = 7
	for name, c := range map[string]Cluster{"PPN past the bound": tooBig, "PPN in an invalid slot": stray} {
		if err := s.Restore(SlabState{Clusters: []Cluster{ok, c}}); err == nil {
			t.Errorf("%s: Restore succeeded", name)
		}
		if st := s.State(); len(st.Clusters) != 1 || st.Clusters[0] != ok {
			t.Errorf("%s: rejected Restore changed the slab to %+v", name, st.Clusters)
		}
	}
}
