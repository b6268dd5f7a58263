package mehpt

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/cuckoo"
	"repro/internal/phys"
	"repro/internal/pt"
)

// TestRestorePageTableRejectsBadSlab: a checkpointed slab its tables
// cannot consistently reference, or way geometry the tables cannot run on,
// restores with an error instead of panicking later in the run, sharing
// one cluster between two keys, or running on to a different fingerprint.
func TestRestorePageTableRejectsBadSlab(t *testing.T) {
	p, mem := newPT(t, 1*addr.GB)
	// Two pages per cluster, so every cluster is in the slab: a one-page
	// cluster is stored inline in its way slot and names no slab id.
	for i := addr.VPN(0); i < 200; i++ {
		for _, sub := range []addr.VPN{0, 5} {
			if _, err := p.Map(i*pt.ClusterSpan+sub, addr.Page4K, addr.PPN(100+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := addr.VPN(0); i < 200; i += 7 {
		for _, sub := range []addr.VPN{0, 5} {
			if _, ok := p.Unmap(i*pt.ClusterSpan+sub, addr.Page4K); !ok {
				t.Fatalf("Unmap of cluster %d page %d missed", i, sub)
			}
		}
	}
	alloc := phys.NewAllocator(mem, 0)
	restore := func(st PageTableState) (*PageTable, error) {
		cfg := DefaultConfig(77)
		cfg.Rand = rand.New(rand.NewSource(5))
		return RestorePageTable(alloc, cfg, st)
	}
	st := p.State()
	if len(st.Slab.Free) == 0 {
		t.Fatal("no cluster was freed; the mutations need a free list")
	}
	r, err := restore(st)
	if err != nil {
		t.Fatalf("intact state: %v", err)
	}
	if got := r.State(); !reflect.DeepEqual(got, st) {
		t.Fatal("intact state does not round-trip")
	}

	// stored returns the first two slots that hold a slab cluster id (an
	// inline value has bit 63 set).
	stored := func(st *PageTableState) (a, b *cuckoo.Entry) {
		for wi := range st.Tables[0].Ways {
			for si := range st.Tables[0].Ways[wi].Slots {
				e := &st.Tables[0].Ways[wi].Slots[si]
				if e.Key == cuckoo.EmptyKey || e.Val>>63 != 0 {
					continue
				}
				if a == nil {
					a = e
				} else {
					return a, e
				}
			}
		}
		t.Fatal("fewer than two stored clusters")
		return nil, nil
	}
	for name, mut := range map[string]func(*PageTableState){
		"free id out of range": func(st *PageTableState) { st.Slab.Free = append(st.Slab.Free, uint64(len(st.Slab.Clusters))) },
		"clusters truncated":   func(st *PageTableState) { st.Slab.Clusters = st.Slab.Clusters[:len(st.Slab.Clusters)/2] },
		"free id twice":        func(st *PageTableState) { st.Slab.Free = append(st.Slab.Free, st.Slab.Free[0]) },
		"stored id on free list": func(st *PageTableState) {
			a, _ := stored(st)
			st.Slab.Free = append(st.Slab.Free, a.Val)
		},
		"id under two keys": func(st *PageTableState) {
			a, b := stored(st)
			b.Val = a.Val
		},
		// Way geometry the table would index out of range with, or run
		// on to a different fingerprint.
		"two of three ways": func(st *PageTableState) { st.Tables[0].Ways = st.Tables[0].Ways[:2] },
		"way slots halved":  func(st *PageTableState) { w := &st.Tables[0].Ways[0]; w.Slots = w.Slots[:len(w.Slots)/2] },
		"way size doubled":  func(st *PageTableState) { st.Tables[0].Ways[0].Size *= 2 },
		"way index":         func(st *PageTableState) { st.Tables[0].Ways[1].Idx = 0 },
		"upsize counters":   func(st *PageTableState) { st.Tables[0].Stats.UpsizesPerWay = nil },
		"resize past size": func(st *PageTableState) {
			w := &st.Tables[0].Ways[0]
			w.Resizing, w.NewSize = true, w.Size/2
			w.Ptr = w.Size + 1
		},
		"resize direction": func(st *PageTableState) {
			w := &st.Tables[0].Ways[0]
			w.Resizing, w.Up, w.NewSize = true, true, w.Size/2
		},
		"resize size not 2^": func(st *PageTableState) { w := &st.Tables[0].Ways[0]; w.Resizing, w.NewSize = true, w.Size-1 },
	} {
		bad := p.State()
		mut(&bad)
		if r, err := restore(bad); err == nil {
			t.Errorf("%s: restored without error (%d clusters)", name, len(r.State().Slab.Clusters))
		}
	}
}
