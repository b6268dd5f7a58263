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
// cannot consistently reference restores with an error instead of
// panicking later in the run or sharing one cluster between two keys.
func TestRestorePageTableRejectsBadSlab(t *testing.T) {
	p, mem := newPT(t, 1*addr.GB)
	for i := addr.VPN(0); i < 200; i++ {
		if _, err := p.Map(i*pt.ClusterSpan, addr.Page4K, addr.PPN(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := addr.VPN(0); i < 200; i += 7 {
		if _, ok := p.Unmap(i*pt.ClusterSpan, addr.Page4K); !ok {
			t.Fatalf("Unmap of cluster %d missed", i)
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

	// stored returns the first two slots that hold a cluster id.
	stored := func(st *PageTableState) (a, b *cuckoo.Entry) {
		for wi := range st.Tables[0].Ways {
			for si := range st.Tables[0].Ways[wi].Slots {
				e := &st.Tables[0].Ways[wi].Slots[si]
				if e.Key == cuckoo.EmptyKey {
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
	} {
		bad := p.State()
		mut(&bad)
		if r, err := restore(bad); err == nil {
			t.Errorf("%s: restored without error (%d clusters)", name, len(r.State().Slab.Clusters))
		}
	}
}
