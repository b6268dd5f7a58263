package pt_test

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/cuckoo"
	"repro/internal/ecpt"
	"repro/internal/mehpt"
	"repro/internal/phys"
	"repro/internal/pt"
)

// hashedPT is the part of both hashed organizations the walk test drives.
type hashedPT interface {
	Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error)
	Translate(va addr.VirtAddr) (pt.Translation, bool)
	Walk(va addr.VirtAddr) (pt.Translation, addr.PhysAddr, bool)
	WayOf(va addr.VirtAddr, s addr.PageSize) (int, bool)
}

// walkCase is one page table under test: the table, the address the walk
// of a key held in a given way must probe, and the addresses to check.
type walkCase struct {
	p     hashedPT
	probe func(s addr.PageSize, way int, key uint64) addr.PhysAddr
	vas   []addr.VirtAddr
	// Addresses that must translate at 2MB, and how many translated
	// addresses must be stash-resident (WayOf reports no way).
	huge, stashed int
}

func newECPT(t *testing.T) *ecpt.PageTable {
	t.Helper()
	cfg := ecpt.DefaultConfig(19)
	cfg.Rand = rand.New(rand.NewSource(4))
	p, err := ecpt.NewPageTable(phys.NewAllocator(phys.NewMemory(2*addr.GB), 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mehptConfig() mehpt.Config {
	cfg := mehpt.DefaultConfig(77)
	cfg.Rand = rand.New(rand.NewSource(5))
	return cfg
}

func newMEHPT(t *testing.T, alloc phys.Source) *mehpt.PageTable {
	t.Helper()
	p, err := mehpt.NewPageTable(alloc, mehptConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ecptCase checks ECPT probes against the slot holding the key in the
// table's captured state (old ways in the first group, the resize target
// in the last), captured once the case is built: walks move no entry.
func ecptCase(p *ecpt.PageTable) walkCase {
	var st *ecpt.PageTableState
	return walkCase{p: p, probe: func(s addr.PageSize, way int, key uint64) addr.PhysAddr {
		if st == nil {
			c := p.State()
			st = &c
		}
		for _, ts := range st.Tables {
			if ts.Size != s {
				continue
			}
			for gen, ways := range [][]cuckoo.WayState{ts.Cuckoo.Cur, ts.Cuckoo.Next} {
				if way >= len(ways) {
					continue // no resize in flight
				}
				g := ts.Groups[0]
				if gen == 1 {
					g = ts.Groups[len(ts.Groups)-1]
				}
				for idx, e := range ways[way].Slots {
					if e.Key == key {
						return g.Bases[way].Addr(addr.Page4K) + addr.PhysAddr(uint64(idx)*pt.EntryBytes)
					}
				}
			}
		}
		return 0
	}}
}

func mehptCase(p *mehpt.PageTable) walkCase {
	return walkCase{p: p, probe: func(s addr.PageSize, way int, key uint64) addr.PhysAddr {
		return p.Table(s).ProbeAddr(way, key)
	}}
}

// shadowHuge maps 4KB pages inside one 2MB region, then the 2MB page over
// them, plus 4KB pages outside it and one unmapped address. Translation
// goes largest size first, so the 2MB mapping shadows the 4KB entries.
func shadowHuge(t *testing.T, c walkCase) walkCase {
	t.Helper()
	const region = addr.VPN(0x4321) // 2MB page number
	base := (region << 9)           // its first 4KB page
	for i := addr.VPN(0); i < 64; i += 3 {
		mustMap(t, c.p, base+i, addr.Page4K, addr.PPN(1000+i))
		c.vas = append(c.vas, (base + i).Addr(addr.Page4K))
	}
	mustMap(t, c.p, region, addr.Page2M, 0x7000)
	for i := addr.VPN(0); i < 64; i++ {
		mustMap(t, c.p, base+0x1000+i, addr.Page4K, addr.PPN(5000+i))
		c.vas = append(c.vas, (base + 0x1000 + i).Addr(addr.Page4K))
	}
	c.vas = append(c.vas, addr.VirtAddr(0xDEAD_0000))
	c.huge = 22 // the 4KB pages mapped inside the region
	return c
}

// midResize maps random pages until the 4KB table has a resize in flight.
func midResize(t *testing.T, c walkCase, resizing func() bool) walkCase {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	for i := 0; !resizing(); i++ {
		if i > 200000 {
			t.Fatal("never caught a resize in flight")
		}
		vpn := addr.VPN(rng.Uint64() & 0xFFFFFF)
		mustMap(t, c.p, vpn, addr.Page4K, addr.PPN(i))
		c.vas = append(c.vas, vpn.Addr(addr.Page4K))
	}
	return c
}

// stashResident builds an ME-HPT whose 4KB table holds one cluster in the
// software stash: it captures a populated table, moves one way entry to
// the stash in the captured state, and restores from it.
func stashResident(t *testing.T) walkCase {
	t.Helper()
	alloc := phys.NewAllocator(phys.NewMemory(1*addr.GB), 0)
	p := newMEHPT(t, alloc)
	var vas []addr.VirtAddr
	for i := addr.VPN(0); i < 300; i++ {
		vpn := i*pt.ClusterSpan + 3 // one mapped page per cluster
		mustMap(t, p, vpn, addr.Page4K, addr.PPN(100+i))
		vas = append(vas, vpn.Addr(addr.Page4K))
	}
	st := p.State()
	ts := &st.Tables[0]
	moved := false
	for wi := range ts.Ways {
		w := &ts.Ways[wi]
		for i, e := range w.Slots {
			if e.Key != cuckoo.EmptyKey && !moved {
				ts.Stash = append(ts.Stash, e)
				w.Slots[i] = cuckoo.Entry{Key: cuckoo.EmptyKey}
				w.Occ--
				moved = true
			}
		}
	}
	r, err := mehpt.RestorePageTable(alloc, mehptConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	stash := r.State().Tables[0].Stash
	if len(stash) != 1 {
		t.Fatal("restored table has no stash-resident entry")
	}
	// A second page in the stashed one-page cluster promotes it to the
	// slab, rewriting the stash entry's value.
	second := pt.BaseVPN(stash[0].Key) + 5
	mustMap(t, r, second, addr.Page4K, 7)
	c := mehptCase(r)
	c.vas = append(vas, second.Addr(addr.Page4K))
	c.stashed = 2
	return c
}

func mustMap(t *testing.T, p hashedPT, vpn addr.VPN, s addr.PageSize, ppn addr.PPN) {
	t.Helper()
	if _, err := p.Map(vpn, s, ppn); err != nil {
		t.Fatal(err)
	}
}

// TestWalkMatchesTranslateAndWayProbe: the fused Walk of both hashed
// organizations agrees with Translate on every address, and its probe
// address is the per-size table's probe of the way WayOf reports (way 0
// for a stash-resident cluster, which no way holds).
func TestWalkMatchesTranslateAndWayProbe(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) walkCase
	}{
		{"ECPT/huge-shadows-4KB", func(t *testing.T) walkCase { return shadowHuge(t, ecptCase(newECPT(t))) }},
		{"ME-HPT/huge-shadows-4KB", func(t *testing.T) walkCase {
			return shadowHuge(t, mehptCase(newMEHPT(t, phys.NewAllocator(phys.NewMemory(2*addr.GB), 0))))
		}},
		{"ECPT/mid-resize", func(t *testing.T) walkCase {
			p := newECPT(t)
			// A resize in flight holds both generations of ways; mapping
			// goes on until the new generation holds a cluster, so some
			// walk probes the resize target.
			return midResize(t, ecptCase(p), func() bool {
				for _, w := range p.Table(addr.Page4K).State().Cuckoo.Next {
					for _, e := range w.Slots {
						if e.Key != cuckoo.EmptyKey {
							return true
						}
					}
				}
				return false
			})
		}},
		{"ME-HPT/mid-resize", func(t *testing.T) walkCase {
			p := newMEHPT(t, phys.NewAllocator(phys.NewMemory(2*addr.GB), 0))
			mustMap(t, p, 0, addr.Page4K, 1) // instantiate the 4KB table
			return midResize(t, mehptCase(p), p.Table(addr.Page4K).Resizing)
		}},
		{"ME-HPT/stash-resident", stashResident},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			huge, stashed, hits := 0, 0, 0
			for _, va := range c.vas {
				want, ok := c.p.Translate(va)
				got, probe, wok := c.p.Walk(va)
				if ok != wok || got != want {
					t.Fatalf("va %#x: Walk = %+v,%v; Translate = %+v,%v", uint64(va), got, wok, want, ok)
				}
				if !ok {
					if _, in := c.p.WayOf(va, addr.Page4K); in {
						t.Fatalf("va %#x: WayOf found an unmapped page", uint64(va))
					}
					continue
				}
				hits++
				way, inWay := c.p.WayOf(va, want.Size)
				if !inWay {
					stashed++
				}
				if want.Size == addr.Page2M {
					huge++
				}
				key := pt.ClusterKey(va.PageNumber(want.Size))
				if wantPA := c.probe(want.Size, way, key); probe != wantPA {
					t.Fatalf("va %#x (%v, way %d, in way %v): Walk probe %#x, way probe %#x",
						uint64(va), want.Size, way, inWay, uint64(probe), uint64(wantPA))
				}
			}
			if hits == 0 || huge != c.huge || stashed != c.stashed {
				t.Errorf("covered %d hits, %d at 2MB (want %d), %d stash-resident (want %d)",
					hits, huge, c.huge, stashed, c.stashed)
			}
		})
	}
}

// TestMapPPNBound: a cluster slot holds PPNs up to 2^48-2, so both hashed
// organizations map and translate that PPN and reject the next one with an
// error, leaving the table without the translation.
func TestMapPPNBound(t *testing.T) {
	const top = addr.PPN(1<<48 - 2)
	for name, p := range map[string]hashedPT{
		"ECPT":   newECPT(t),
		"ME-HPT": newMEHPT(t, phys.NewAllocator(phys.NewMemory(2*addr.GB), 0)),
	} {
		mustMap(t, p, 8, addr.Page4K, top)
		if tr, ok := p.Translate(addr.VPN(8).Addr(addr.Page4K)); !ok || tr.PPN != top {
			t.Errorf("%s: Translate after Map(%#x) = %+v,%v", name, uint64(top), tr, ok)
		}
		if _, err := p.Map(9, addr.Page4K, top+1); err == nil {
			t.Errorf("%s: Map(%#x) succeeded, want an error", name, uint64(top+1))
		}
		if tr, ok := p.Translate(addr.VPN(9).Addr(addr.Page4K)); ok {
			t.Errorf("%s: rejected Map left a translation %+v", name, tr)
		}
	}
}
