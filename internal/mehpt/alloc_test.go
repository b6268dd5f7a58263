package mehpt

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cuckoo"
	"repro/internal/pt"
)

// TestLookupAllocFree guards the page-walk hot path: once the table is
// populated and its resizes drained, Table.Lookup, PageTable.Translate, and the fused
// PageTable.Walk must never allocate — the Mixer probe, the flat ways, and
// the stash scan are all in-place reads. The dense half maps consecutive
// pages, so every cluster is in the slab; the sparse half maps every 8th
// page, so every cluster holds one page inline in its way slot.
func TestLookupAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stride uint64
	}{{"dense", 1}, {"sparse", pt.ClusterSpan}} {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := newPT(t, 1*addr.GB)
			const pages = 512
			vpn := func(i uint64) addr.VPN { return addr.VPN(i * tc.stride) }
			for i := uint64(0); i < pages; i++ {
				if _, err := p.Map(vpn(i), addr.Page4K, addr.PPN(1000+i)); err != nil {
					t.Fatal(err)
				}
			}
			tb := p.Table(addr.Page4K)
			if err := tb.DrainResizes(); err != nil {
				t.Fatal(err)
			}

			var i uint64
			if n := testing.AllocsPerRun(1000, func() {
				i = (i + 1) % pages
				if _, ok := tb.Lookup(pt.ClusterKey(vpn(i))); !ok {
					t.Fatal("settled lookup missed")
				}
			}); n != 0 {
				t.Errorf("Table.Lookup allocates %v objects per call", n)
			}

			if n := testing.AllocsPerRun(1000, func() {
				i = (i + 1) % pages
				va := vpn(i).Addr(addr.Page4K)
				if tr, ok := p.Translate(va); !ok || tr.PPN != addr.PPN(1000+i) {
					t.Fatalf("Translate = %+v,%v", tr, ok)
				}
				if tr, _, ok := p.Walk(va); !ok || tr.PPN != addr.PPN(1000+i) {
					t.Fatalf("Walk = %+v,%v", tr, ok)
				}
			}); n != 0 {
				t.Errorf("Translate+Walk allocates %v objects per call", n)
			}

			// Misses take the same probe loop through every size table.
			if n := testing.AllocsPerRun(1000, func() {
				if _, ok := p.Translate(addr.VPN(1 << 30).Addr(addr.Page4K)); ok {
					t.Fatal("phantom translation")
				}
			}); n != 0 {
				t.Errorf("missing Translate allocates %v objects per call", n)
			}
		})
	}
}

// TestRareWalkAllocFree extends the guard to the walk's rare branches: a
// key below a resizing way's rehash pointer, which indexes the way's new
// size, and a key in the software stash.
func TestRareWalkAllocFree(t *testing.T) {
	p, _ := newPT(t, 1*addr.GB)
	var keys, below []uint64
	for i := uint64(0); len(below) == 0; i++ {
		if i == 1<<16 {
			t.Fatal("no mapped key lies below a rehash pointer")
		}
		vpn := addr.VPN(i * pt.ClusterSpan)
		if _, err := p.Map(vpn, addr.Page4K, addr.PPN(1000+i)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, pt.ClusterKey(vpn))
		below = belowPtr(p.Table(addr.Page4K), keys)
	}
	tb := p.Table(addr.Page4K)
	var i int
	if n := testing.AllocsPerRun(1000, func() {
		k := below[i]
		i = (i + 1) % len(below)
		if _, _, ok := tb.Walk(k); !ok {
			t.Fatal("walk below the rehash pointer missed")
		}
	}); n != 0 {
		t.Errorf("Walk below the rehash pointer allocates %v objects per call", n)
	}

	stashed := pt.ClusterKey(addr.VPN(1 << 40))
	tb.stashPut(cuckoo.Entry{Key: stashed, Val: 7})
	if n := testing.AllocsPerRun(1000, func() {
		if v, _, ok := tb.Walk(stashed); !ok || v != 7 {
			t.Fatalf("stash walk = %d,%v", v, ok)
		}
	}); n != 0 {
		t.Errorf("Walk of a stashed key allocates %v objects per call", n)
	}
}

// belowPtr returns the keys whose old-size index lies below their way's
// rehash pointer during a resize: their walks index the way's new size.
func belowPtr(tb *Table, keys []uint64) []uint64 {
	var out []uint64
	for _, k := range keys {
		if i, _, ok := tb.lookupSlot(k); ok {
			w := tb.ways[i]
			if w.resizing && w.fn.Hash(k)&(w.size-1) < w.ptr {
				out = append(out, k)
			}
		}
	}
	return out
}

// TestFailedTransitionAllocs: a chunk-size transition whose allocation
// fails allocates no more than the store's own rolled-back Transition, so
// a table retrying it on every insert under sustained pressure never pays
// for the entries of the way it leaves untouched.
func TestFailedTransitionAllocs(t *testing.T) {
	p, _ := newPT(t, 64*addr.MB)
	for i := uint64(0); i < 3000; i++ {
		if _, err := p.Map(addr.VPN(i*pt.ClusterSpan), addr.Page4K, addr.PPN(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	tb := p.Table(addr.Page4K)
	if err := tb.DrainResizes(); err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := tb.alloc.Alloc(4 * addr.KB); err != nil {
			break
		}
	}
	w := tb.ways[0]
	size, occ := w.size, w.occ
	store := testing.AllocsPerRun(100, func() {
		if _, err := w.store.Transition(2 * size * pt.EntryBytes); err == nil {
			t.Fatal("transition succeeded in an exhausted pool")
		}
	})
	way := testing.AllocsPerRun(100, func() {
		if _, err := tb.transitionWay(w, 2*size); err == nil {
			t.Fatal("transition succeeded in an exhausted pool")
		}
	})
	if w.size != size || w.occ != occ || occ < 500 {
		t.Fatalf("way 0 holds %d entries in %d slots, want %d in %d", w.occ, w.size, occ, size)
	}
	if way != store {
		t.Errorf("a failed transition allocates %v objects, its store's Transition %v", way, store)
	}
}
