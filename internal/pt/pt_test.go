package pt

import (
	"testing"
	"testing/quick"

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
	var c Cluster
	if c.ValidMask != 0 {
		t.Fatal("zero cluster not empty")
	}
	c.Set(3, 1000)
	c.Set(7, 2000)
	if c.ValidMask != 1<<3|1<<7 {
		t.Errorf("ValidMask = %#b, want slots 3 and 7", c.ValidMask)
	}
	if p, ok := c.Get(3); !ok || p != 1000 {
		t.Errorf("Get(3) = %d,%v", p, ok)
	}
	if _, ok := c.Get(0); ok {
		t.Error("Get(0) valid on unset slot")
	}
	if c.Clear(3) {
		t.Error("Clear(3) reported empty with slot 7 still valid")
	}
	if !c.Clear(7) {
		t.Error("Clear(7) did not report empty")
	}
	if c != (Cluster{}) {
		t.Errorf("cluster not empty after clearing all: %+v", c)
	}
}

func TestSlabReuse(t *testing.T) {
	var s Slab
	a := s.Alloc()
	b := s.Alloc()
	if a == b {
		t.Fatal("Alloc returned duplicate ids")
	}
	s.At(a).Set(0, 42)
	s.Free(a)
	if s.n != 2 || len(s.chunks) != 1 || len(s.free) != 1 {
		t.Errorf("%d clusters in %d chunks, %d free; want 2 in 1, 1", s.n, len(s.chunks), len(s.free))
	}
	c := s.Alloc() // must recycle a, zeroed
	if c != a {
		t.Errorf("expected recycled id %d, got %d", a, c)
	}
	if *s.At(c) != (Cluster{}) {
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
