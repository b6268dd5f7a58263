package pt_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/ecpt"
	"repro/internal/mehpt"
	"repro/internal/phys"
	"repro/internal/pt"
)

// Hashed fuzz ops, 3 bytes each: kind, a page selector a, an argument b.
// Bit 7 of a picks the page size (4KB or 2MB), and a%opWindow the page
// within that size's window. Kind 1 maps too, so maps outnumber unmaps.
const (
	opMap       = 0
	opRemap     = 2
	opUnmap     = 3
	opTranslate = 4
	opWalk      = 5
	opRoundTrip = 6
	opSetValue  = 7
	// opWindow is the pages per size the ops touch: 5 clusters' worth,
	// so most maps land in a cluster that already holds a page.
	opWindow = 40
)

// windowBase is the first VPN of each size's window. The 4KB window
// straddles the boundary between 2MB pages 0x4321 and 0x4322, which the
// 2MB window covers, so huge mappings shadow some 4KB ones.
var windowBase = map[addr.PageSize]addr.VPN{
	addr.Page4K: 0x4321<<9 + 500,
	addr.Page2M: 0x4321 - 20,
}

// fuzzPT is the part of both hashed organizations FuzzHashedOps drives.
type fuzzPT interface {
	hashedPT
	Unmap(vpn addr.VPN, s addr.PageSize) (uint64, bool)
	TranslateSize(vpn addr.VPN, s addr.PageSize) (addr.PPN, bool)
}

// valueTable is the part of a per-size table the SetValue check drives.
type valueTable interface {
	Lookup(key uint64) (uint64, bool)
	SetValue(key, val uint64)
}

// countingSource counts the draws a page table takes from its Rand.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// hashedOrg builds, restores and inspects one hashed organization over a
// Rand drawing from src.
type hashedOrg struct {
	name    string
	build   func(alloc phys.Source, src rand.Source) (fuzzPT, error)
	restore func(alloc phys.Source, src rand.Source, p fuzzPT) (fuzzPT, error)
	// state returns the page table's checkpoint form.
	state func(p fuzzPT) any
	// table returns the per-size table of a size some page is mapped at.
	table func(p fuzzPT, s addr.PageSize) valueTable
}

var hashedOrgs = []hashedOrg{
	{
		name: "ECPT",
		build: func(alloc phys.Source, src rand.Source) (fuzzPT, error) {
			cfg := ecpt.DefaultConfig(19)
			cfg.Rand = rand.New(src)
			return ecpt.NewPageTable(alloc, cfg)
		},
		restore: func(alloc phys.Source, src rand.Source, p fuzzPT) (fuzzPT, error) {
			cfg := ecpt.DefaultConfig(19)
			cfg.Rand = rand.New(src)
			return ecpt.RestorePageTable(alloc, cfg, p.(*ecpt.PageTable).State())
		},
		state: func(p fuzzPT) any { return p.(*ecpt.PageTable).State() },
		table: func(p fuzzPT, s addr.PageSize) valueTable { return p.(*ecpt.PageTable).Table(s) },
	},
	{
		name: "ME-HPT",
		build: func(alloc phys.Source, src rand.Source) (fuzzPT, error) {
			cfg := mehpt.DefaultConfig(77)
			cfg.Rand = rand.New(src)
			return mehpt.NewPageTable(alloc, cfg)
		},
		restore: func(alloc phys.Source, src rand.Source, p fuzzPT) (fuzzPT, error) {
			cfg := mehpt.DefaultConfig(77)
			cfg.Rand = rand.New(src)
			return mehpt.RestorePageTable(alloc, cfg, p.(*mehpt.PageTable).State())
		},
		state: func(p fuzzPT) any { return p.(*mehpt.PageTable).State() },
		table: func(p fuzzPT, s addr.PageSize) valueTable { return p.(*mehpt.PageTable).Table(s) },
	},
}

// mapping is one oracle key.
type mapping struct {
	vpn  addr.VPN
	size addr.PageSize
}

// hashedOpsSeeds are hand-written op sequences plus a few random ones, run
// as tier-1 tests.
func hashedOpsSeeds() [][]byte {
	const huge = 0x80
	op := func(kind, a, b byte) []byte { return []byte{kind, a, b} }
	cat := func(ops ...[]byte) []byte {
		var out []byte
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	// Window page 4 is sub-index 0 of the second cluster (500+4 = 63·8).
	seeds := [][]byte{
		// A one-page cluster, then a second page in it (promotion), a
		// remap of each, and unmaps down to empty; the largest PPN inline.
		cat(op(opMap, 5, 1), op(opTranslate, 4, 9), op(opWalk, 5, 3), op(opMap, 7, 2), op(opRemap, 0, 3),
			op(opRemap, 1, 4), op(opUnmap, 5, 0), op(opUnmap, 7, 0), op(opMap, 12, 0xFF), op(opSetValue, 0, 0),
			op(opRoundTrip, 0, 0)),
		// Unmap of an absent sibling of an inline page, remap inline at
		// the same sub-index, round trip, then promote the restored
		// inline value and unmap its first page.
		cat(op(opMap, 12, 1), op(opUnmap, 13, 0), op(opUnmap, 11, 0), op(opMap, 12, 7), op(opSetValue, 0, 0),
			op(opRoundTrip, 0, 0), op(opMap, 13, 2), op(opUnmap, 12, 0), op(opSetValue, 0, 0), op(opWalk, 13, 0)),
		// A 2MB page shadowing 4KB pages under it, then unmapped.
		cat(op(opMap, 10, 1), op(opMap, 11, 2), op(opMap, huge|20, 3), op(opTranslate, 10, 0), op(opWalk, 11, 5),
			op(opMap, huge|21, 4), op(opWalk, 20, 0), op(opUnmap, huge|20, 0), op(opWalk, 10, 0), op(opRoundTrip, 0, 0)),
	}
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzHashedOps decodes the input into 3-byte ops over a window of a few
// dozen pages per size — map, remap, unmap, translate, walk,
// State→Restore, SetValue — runs them on ECPT and ME-HPT, and checks each
// against a flat (vpn, size) → ppn oracle after every op. The window is
// small, so clusters are promoted from one inline page to the slab and
// unmapped at other sub-indices all the time. SetValue must leave the
// table's checkpoint form, statistics included, and its Rand untouched.
func FuzzHashedOps(f *testing.F) {
	for _, s := range hashedOpsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*200 {
			data = data[:3*200]
		}
		for _, org := range hashedOrgs {
			runHashedOps(t, org, data)
		}
	})
}

func runHashedOps(t *testing.T, org hashedOrg, data []byte) {
	alloc := phys.NewAllocator(phys.NewMemory(1*addr.GB), 0)
	src := &countingSource{Source: rand.NewSource(4)}
	p, err := org.build(alloc, src)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[mapping]addr.PPN{}
	var keys []mapping // oracle keys in map order, for picking one by argument
	pick := func(a byte) (mapping, bool) {
		if len(keys) == 0 {
			return mapping{}, false
		}
		return keys[int(a)%len(keys)], true
	}
	want := func(va addr.VirtAddr) (pt.Translation, bool) {
		for _, s := range []addr.PageSize{addr.Page2M, addr.Page4K} {
			if ppn, ok := oracle[mapping{va.PageNumber(s), s}]; ok {
				return pt.Translation{PPN: ppn, Size: s}, true
			}
		}
		return pt.Translation{}, false
	}
	for i := 0; i+3 <= len(data); i += 3 {
		op, a, b := i/3, data[i+1], data[i+2]
		m := mapping{size: addr.Page4K}
		if a&0x80 != 0 {
			m.size = addr.Page2M
		}
		m.vpn = windowBase[m.size] + addr.VPN(a%opWindow)
		ppn := addr.PPN(uint64(b)<<40 | uint64(op))
		if b == 0xFF {
			ppn = 1<<48 - 2 // the largest PPN a cluster slot holds
		}
		va := m.vpn.Addr(m.size) + addr.VirtAddr(uint64(b)*4099%m.size.Bytes())
		switch kind := data[i] % 8; kind {
		case opMap, 1, opRemap:
			if kind == opRemap {
				var ok bool
				if m, ok = pick(a); !ok {
					continue
				}
			}
			if _, err := p.Map(m.vpn, m.size, ppn); err != nil {
				t.Fatalf("%s op %d: Map(%#x, %v): %v", org.name, op, uint64(m.vpn), m.size, err)
			}
			if _, had := oracle[m]; !had {
				keys = append(keys, m)
			}
			oracle[m] = ppn
		case opUnmap:
			_, had := oracle[m]
			if _, ok := p.Unmap(m.vpn, m.size); ok != had {
				t.Fatalf("%s op %d: Unmap(%#x, %v) = %v, oracle %v", org.name, op, uint64(m.vpn), m.size, ok, had)
			}
			if had {
				delete(oracle, m)
				for j := range keys {
					if keys[j] == m {
						keys = append(keys[:j], keys[j+1:]...)
						break
					}
				}
			}
		case opTranslate:
			got, ok := p.Translate(va)
			if w, wok := want(va); ok != wok || got != w {
				t.Fatalf("%s op %d: Translate(%#x) = %+v,%v; oracle %+v,%v", org.name, op, uint64(va), got, ok, w, wok)
			}
		case opWalk:
			got, _, ok := p.Walk(va)
			if w, wok := want(va); ok != wok || got != w {
				t.Fatalf("%s op %d: Walk(%#x) = %+v,%v; oracle %+v,%v", org.name, op, uint64(va), got, ok, w, wok)
			}
		case opRoundTrip:
			st := org.state(p)
			src = &countingSource{Source: rand.NewSource(int64(op))}
			if p, err = org.restore(alloc, src, p); err != nil {
				t.Fatalf("%s op %d: restore: %v", org.name, op, err)
			}
			if got := org.state(p); !reflect.DeepEqual(got, st) {
				t.Fatalf("%s op %d: State→Restore→State differs", org.name, op)
			}
		case opSetValue:
			m, ok := pick(a)
			if !ok {
				continue
			}
			tb := org.table(p, m.size)
			key := pt.ClusterKey(m.vpn)
			val, ok := tb.Lookup(key)
			if !ok {
				t.Fatalf("%s op %d: Lookup of mapped %#x at %v missed", org.name, op, uint64(m.vpn), m.size)
			}
			st, draws := org.state(p), src.draws
			tb.SetValue(key, val^0xA5)
			tb.SetValue(key, val)
			if got := org.state(p); !reflect.DeepEqual(got, st) || src.draws != draws {
				t.Fatalf("%s op %d: SetValue changed the table's state or drew randomness (%d draws)",
					org.name, op, src.draws-draws)
			}
		}
		for _, s := range []addr.PageSize{addr.Page4K, addr.Page2M} {
			for k := addr.VPN(0); k < opWindow; k++ {
				vpn := windowBase[s] + k
				want, wok := oracle[mapping{vpn, s}]
				if got, ok := p.TranslateSize(vpn, s); ok != wok || ok && got != want {
					t.Fatalf("%s op %d: TranslateSize(%#x, %v) = %#x,%v; oracle %#x,%v",
						org.name, op, uint64(vpn), s, uint64(got), ok, uint64(want), wok)
				}
			}
		}
	}
}
