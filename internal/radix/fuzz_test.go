package radix

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/addr"
	"repro/internal/phys"
)

// oracleKey names one translation of the flat reference model.
type oracleKey struct {
	vpn  addr.VPN
	size addr.PageSize
}

// oracle is the flat (vpn, size) → ppn specification the tree must match.
type oracle map[oracleKey]addr.PPN

// covering returns the mapping that translates va, if any.
func (o oracle) covering(va addr.VirtAddr) (oracleKey, addr.PPN, bool) {
	for _, s := range addr.Sizes() {
		k := oracleKey{va.PageNumber(s), s}
		if ppn, ok := o[k]; ok {
			return k, ppn, true
		}
	}
	return oracleKey{}, 0, false
}

// blockedBy reports whether a larger page already covers vpn at size s,
// which makes the tree refuse the map.
func (o oracle) blockedBy(vpn addr.VPN, s addr.PageSize) bool {
	va := vpn.Addr(s)
	for _, big := range addr.Sizes() {
		if big.Bytes() > s.Bytes() {
			if _, ok := o[oracleKey{va.PageNumber(big), big}]; ok {
				return true
			}
		}
	}
	return false
}

// mapAt records vpn→ppn. A huge map replaces the lower-level table under
// it, so every smaller mapping inside the new page disappears with it.
func (o oracle) mapAt(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) {
	for k := range o {
		if k.size.Bytes() < s.Bytes() && k.vpn.Addr(k.size).PageNumber(s) == vpn {
			delete(o, k)
		}
	}
	o[oracleKey{vpn, s}] = ppn
}

// fuzzVA decodes three bytes into a 4KB-aligned address in the low 4GB,
// so ops collide on shared PUD/PMD entries often.
func fuzzVA(b []byte) addr.VirtAddr {
	raw := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16
	return addr.VirtAddr((raw & 0xFFFFF) << 12)
}

// radixOpsSeeds are hand-written op sequences (4 bytes per op; see
// FuzzRadixOps) plus a few random ones, run as tier-1 tests.
func radixOpsSeeds() [][]byte {
	op := func(kind, size byte, va uint64) []byte {
		raw := va >> 12
		return []byte{kind | size<<3, byte(raw), byte(raw >> 8), byte(raw >> 16)}
	}
	cat := func(ops ...[]byte) []byte {
		var out []byte
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	const (
		mapOp, unmapOp, xlateOp, roundTrip = 0, 3, 4, 5
		s4k, s2m, s1g                      = 0, 1, 2
	)
	seeds := [][]byte{
		// 4K maps in one 2MB region, a 2MB collapse over their PTE node
		// (freeing an id), then fresh 4K maps elsewhere reusing it.
		cat(op(mapOp, s4k, 0x20_1000), op(mapOp, s4k, 0x20_2000), op(mapOp, s2m, 0x20_0000),
			op(xlateOp, s4k, 0x20_1000), op(mapOp, s4k, 0x60_0000), op(roundTrip, 0, 0),
			op(mapOp, s4k, 0x20_3000), op(unmapOp, s2m, 0x20_0000), op(mapOp, s4k, 0x20_3000),
			op(xlateOp, s4k, 0x20_3000), op(roundTrip, 0, 0)),
		// A 1GB collapse over a PMD table holding both 2MB and 4KB leaves.
		cat(op(mapOp, s4k, 0x4000_1000), op(mapOp, s2m, 0x4060_0000), op(mapOp, s4k, 0x40A0_0000),
			op(roundTrip, 0, 0), op(mapOp, s1g, 0x4000_0000), op(xlateOp, s4k, 0x40A0_0000),
			op(mapOp, s2m, 0x4000_0000), op(unmapOp, s1g, 0x4000_0000), op(mapOp, s2m, 0x4000_0000),
			op(mapOp, s4k, 0x4060_0000), op(roundTrip, 0, 0)),
		// Unmap and remap at the same slot, and unmaps that must miss.
		cat(op(unmapOp, s4k, 0x1000), op(mapOp, s4k, 0x1000), op(mapOp, s4k, 0x1000),
			op(unmapOp, s2m, 0), op(unmapOp, s4k, 0x1000), op(unmapOp, s4k, 0x1000),
			op(xlateOp, s4k, 0x1000)),
	}
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzRadixOps decodes the input into a sequence of 4-byte ops — map at
// 4K/2M/1G, unmap, translate, State→Restore→State — and checks the tree
// against a flat (vpn, size) → ppn oracle after every op: the structural
// checks pass, VisitMappings equals the oracle, the owned frames are
// Stats().Nodes distinct frames, and the allocator holds exactly those.
func FuzzRadixOps(f *testing.F) {
	for _, s := range radixOpsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*256 {
			data = data[:4*256]
		}
		mem := phys.NewMemory(64 * addr.MB)
		alloc := phys.NewAllocator(mem, 0)
		p, err := NewPageTable(alloc)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle{}
		for i := 0; i+4 <= len(data); i += 4 {
			kind, size := data[i]&7, addr.Sizes()[int(data[i]>>3)%3]
			va := fuzzVA(data[i+1 : i+4])
			vpn := va.PageNumber(size)
			switch kind {
			case 0, 1, 2, 6:
				ppn := addr.PPN(i + 1)
				_, err := p.Map(vpn, size, ppn)
				if blocked := want.blockedBy(vpn, size); blocked != (err != nil) {
					t.Fatalf("op %d: Map(%#x, %v) err = %v, oracle blocked = %v", i/4, uint64(vpn), size, err, blocked)
				}
				if err == nil {
					want.mapAt(vpn, size, ppn)
				}
			case 3:
				_, ok := p.Unmap(vpn, size)
				k := oracleKey{vpn, size}
				if _, had := want[k]; ok != had {
					t.Fatalf("op %d: Unmap(%#x, %v) = %v, oracle has it = %v", i/4, uint64(vpn), size, ok, had)
				}
				delete(want, k)
			case 4, 7:
				tr, ok := p.Translate(va)
				k, ppn, had := want.covering(va)
				if ok != had || (ok && (tr.PPN != ppn || tr.Size != k.size)) {
					t.Fatalf("op %d: Translate(%#x) = %+v,%v, oracle %v/%#x,%v", i/4, uint64(va), tr, ok, k.size, uint64(ppn), had)
				}
				if _, wtr, wok := p.AppendWalkAddrs(nil, va); wok != ok || wtr != tr {
					t.Fatalf("op %d: walk of %#x = %+v,%v, Translate %+v,%v", i/4, uint64(va), wtr, wok, tr, ok)
				}
			case 5:
				st := p.State()
				q, err := Restore(st, alloc)
				if err != nil {
					t.Fatalf("op %d: Restore: %v", i/4, err)
				}
				if got := q.State(); !reflect.DeepEqual(got, st) {
					t.Fatalf("op %d: State→Restore→State differs", i/4)
				}
				p = q
			}
			checkAgainstOracle(t, i/4, p, mem, want)
		}
		p.Free()
		if mem.FreeBytes() != mem.TotalBytes() {
			t.Fatalf("Free left %d of %d bytes allocated", mem.TotalBytes()-mem.FreeBytes(), mem.TotalBytes())
		}
	})
}

func checkAgainstOracle(t *testing.T, op int, p *PageTable, mem *phys.Memory, want oracle) {
	t.Helper()
	if bad := p.CheckTables(); len(bad) > 0 {
		t.Fatalf("op %d: CheckTables: %v", op, bad)
	}
	got := oracle{}
	p.VisitMappings(func(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) {
		got[oracleKey{vpn, s}] = ppn
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("op %d: VisitMappings has %d mappings, oracle %d: %v vs %v", op, len(got), len(want), got, want)
	}
	frames := map[addr.PPN]bool{}
	p.VisitOwnedFrames(func(base addr.PPN, bytes uint64) { frames[base] = true })
	if n := p.stats.Nodes; len(frames) != n {
		t.Fatalf("op %d: %d distinct owned frames, Stats().Nodes = %d", op, len(frames), n)
	}
	if used := mem.TotalBytes() - mem.FreeBytes(); used != p.FootprintBytes() {
		t.Fatalf("op %d: allocator holds %d bytes, tree footprint %d", op, used, p.FootprintBytes())
	}
}

// TestNodeIsOnePage pins the host layout: a tree node is exactly the 4KB
// of PTE words it simulates.
func TestNodeIsOnePage(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 4096 {
		t.Fatalf("sizeof(node) = %d, want 4096", got)
	}
}

// TestHostHeapTracksFootprint maps 4096 pages 2MB apart, so each needs its
// own PTE node, and checks the live host heap grows by at most 1.15× the
// simulated page-table footprint.
func TestHostHeapTracksFootprint(t *testing.T) {
	mem := phys.NewMemory(64 * addr.MB)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := NewPageTable(phys.NewAllocator(mem, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if _, err := p.Map(addr.VPN(i*512), addr.Page4K, addr.PPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	foot := float64(p.FootprintBytes())
	runtime.KeepAlive(p)
	t.Logf("host heap grew %.0f bytes for a %.0f-byte tree (%.3fx)", grew, foot, grew/foot)
	if grew > 1.15*foot {
		t.Errorf("host heap grew %.0f bytes for a %.0f-byte tree (%.2fx), want at most 1.15x", grew, foot, grew/foot)
	}
}
