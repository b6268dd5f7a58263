package mmu

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
)

type vaMapper interface {
	Table
	Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error)
}

// newMMU builds an MMU of the given kind ("Radix" or "HPT") over a fresh
// table.
func newMMU(t *testing.T, kind string) (*MMU, vaMapper) {
	t.Helper()
	if kind == "Radix" {
		m, pt, _ := newRadixMMU(t)
		return m, pt
	}
	m, pt, _ := newHPTMMU(t)
	return m, pt
}

// page names one mapping: a page number at a page size.
type page struct {
	vpn  addr.VPN
	size addr.PageSize
}

// installed is the flat specification of what a batchPair maps: page →
// PPN, resolved largest size first.
type installed map[page]addr.PPN

// mapPage maps vpn→ppn at size s into every table of pts and records it.
func (in installed) mapPage(t *testing.T, pts []vaMapper, vpn addr.VPN, s addr.PageSize, ppn addr.PPN) {
	t.Helper()
	for _, p := range pts {
		if _, err := p.Map(vpn, s, ppn); err != nil {
			t.Fatal(err)
		}
	}
	in[page{vpn, s}] = ppn
}

// pa returns the physical address va translates to, if any page maps it.
func (in installed) pa(va addr.VirtAddr) (addr.PhysAddr, bool) {
	for _, s := range []addr.PageSize{addr.Page1G, addr.Page2M, addr.Page4K} {
		if ppn, ok := in[page{va.PageNumber(s), s}]; ok {
			return addr.Translate(va, ppn, s), true
		}
	}
	return 0, false
}

// batchPair builds two identical MMU+table pairs of the requested kind and
// maps the same pages into both: mapped 4K pages, a 2M page, and a deliberate
// unmapped hole so batches hit the fault path too. It returns the mappings
// it installed.
func batchPair(t *testing.T, kind string) (a, b *MMU, vas []addr.VirtAddr, in installed) {
	t.Helper()
	am, apt := newMMU(t, kind)
	bm, bpt := newMMU(t, kind)
	in = installed{}
	pts := []vaMapper{apt, bpt}
	base := addr.VirtAddr(0x4000_0000)
	for i := 0; i < 512; i++ {
		va := base + addr.VirtAddr(i)*4096
		in.mapPage(t, pts, va.PageNumber(addr.Page4K), addr.Page4K, addr.PPN(i+1))
	}
	in.mapPage(t, pts, addr.VPN(0x8000_0000>>21), addr.Page2M, 7777)

	rng := rand.New(rand.NewSource(11))
	vas = make([]addr.VirtAddr, 3000)
	for i := range vas {
		switch rng.Intn(10) {
		case 0: // unmapped hole: faults
			vas[i] = addr.VirtAddr(0x7000_0000) + addr.VirtAddr(rng.Intn(64))*4096
		case 1: // 2M page
			vas[i] = addr.VirtAddr(0x8000_0000) + addr.VirtAddr(rng.Intn(1<<21))
		default:
			vas[i] = base + addr.VirtAddr(rng.Intn(512))*4096
		}
	}
	return am, bm, vas, in
}

// TestTranslateBatchMatchesScalar: the batched pipeline — TranslateBatchPAs
// over segments of varying width (including width 1 and non-multiples of
// BatchWidth), each full miss finished by TranslateWalk — must be
// bit-identical to scalar Translate calls on an identically built MMU, for
// both walker families, across hit, miss, huge-page, and fault elements: the
// same addresses, the same summed cycles for every resolved prefix, the
// walked element's Result (the batch's miss latency plus the walk) equal to
// the scalar one, and the same final Stats. Every physical address either
// path produces must also be the one the installed mappings give, and an
// address no mapping covers must fault.
func TestTranslateBatchMatchesScalar(t *testing.T) {
	for _, kind := range []string{"Radix", "HPT"} {
		t.Run(kind, func(t *testing.T) {
			scalar, batch, vas, in := batchPair(t, kind)
			var pas [BatchWidth]addr.PhysAddr
			segments := []int{1, 5, 31, 64, 64, 17, 3, 20}
			pos, seg := 0, 0
			for pos < len(vas) {
				k := segments[seg%len(segments)]
				seg++
				if k > len(vas)-pos {
					k = len(vas) - pos
				}
				chunk := vas[pos : pos+k]
				n, latSum, missLat := batch.TranslateBatchPAs(chunk, pas[:])
				var wantSum uint64
				for i := 0; i < n; i++ {
					want := scalar.Translate(chunk[i])
					if want.Fault || pas[i] != want.PA {
						t.Fatalf("element %d (va %#x): batch pa %#x, scalar %+v", pos+i, chunk[i], pas[i], want)
					}
					if pa, ok := in.pa(chunk[i]); !ok || pas[i] != pa {
						t.Fatalf("element %d (va %#x): batch pa %#x, installed %#x,%v", pos+i, chunk[i], pas[i], pa, ok)
					}
					wantSum += want.Cycles
				}
				if latSum != wantSum {
					t.Fatalf("pos %d: prefix of %d summed %d cycles, scalar %d", pos, n, latSum, wantSum)
				}
				if n < k {
					want := scalar.Translate(chunk[n])
					if got := batch.TranslateWalk(chunk[n], missLat); got != want {
						t.Fatalf("element %d (va %#x): walk %+v (miss latency %d), scalar %+v",
							pos+n, chunk[n], got, missLat, want)
					}
					if pa, ok := in.pa(chunk[n]); ok == want.Fault || ok && want.PA != pa {
						t.Fatalf("element %d (va %#x): walk %+v, installed %#x,%v", pos+n, chunk[n], want, pa, ok)
					}
					n++
				}
				pos += n
			}
			if bs, ss := batch.Stats(), scalar.Stats(); bs != ss {
				t.Errorf("stats diverge: batch %+v, scalar %+v", bs, ss)
			}
		})
	}
}

// TestTranslateBatchPAsMatchesBatch: the fused physical-address entry point
// driven over wide segments must consume the same prefixes and produce the
// same addresses, summed cycles, miss latencies, walked Results, and
// statistics as the same entry point driven as batches of one element, so
// the cross-element pipelining inside a batch never changes an outcome.
func TestTranslateBatchPAsMatchesBatch(t *testing.T) {
	for _, kind := range []string{"Radix", "HPT"} {
		t.Run(kind, func(t *testing.T) {
			ref, fused, vas, _ := batchPair(t, kind)
			var pas [BatchWidth]addr.PhysAddr
			var one [1]addr.PhysAddr
			segments := []int{64, 3, 31, 1, 64, 20}
			pos, seg := 0, 0
			for pos < len(vas) {
				k := segments[seg%len(segments)]
				seg++
				if k > len(vas)-pos {
					k = len(vas) - pos
				}
				chunk := vas[pos : pos+k]
				fn, latSum, fMiss := fused.TranslateBatchPAs(chunk, pas[:k])
				rn, wantSum, rMiss := 0, uint64(0), uint64(0)
				for rn < k {
					n, lat, miss := ref.TranslateBatchPAs(chunk[rn:rn+1], one[:1])
					if n == 0 {
						rMiss = miss
						break
					}
					if rn < fn && pas[rn] != one[0] {
						t.Fatalf("pos %d+%d: pa %#x, batch of one %#x", pos, rn, pas[rn], one[0])
					}
					wantSum += lat
					rn++
				}
				if fn != rn || fMiss != rMiss {
					t.Fatalf("pos %d: fused (n=%d miss=%d), batch of one (n=%d miss=%d)", pos, fn, fMiss, rn, rMiss)
				}
				if latSum != wantSum {
					t.Fatalf("pos %d: latSum %d, batch-of-one cycles %d", pos, latSum, wantSum)
				}
				if rn < k {
					rw := ref.TranslateWalk(chunk[rn], rMiss)
					fw := fused.TranslateWalk(chunk[rn], fMiss)
					if rw != fw {
						t.Fatalf("pos %d: walk results diverge: %+v vs %+v", pos, rw, fw)
					}
					pos += rn + 1
					continue
				}
				pos += rn
			}
			if fs, rs := fused.Stats(), ref.Stats(); fs != rs {
				t.Errorf("stats diverge: fused %+v, batch of one %+v", fs, rs)
			}
		})
	}
}

// TestTranslateBatchPAsAllocFree guards the simulator's steady-state batch
// entry point on both walker families: a warm full-width batch must not touch
// the heap.
func TestTranslateBatchPAsAllocFree(t *testing.T) {
	for _, kind := range []string{"Radix", "HPT"} {
		t.Run(kind, func(t *testing.T) {
			m, pt := newMMU(t, kind)
			var vas [BatchWidth]addr.VirtAddr
			var pas [BatchWidth]addr.PhysAddr
			base := addr.VirtAddr(0x4000_0000)
			for i := range vas {
				vas[i] = base + addr.VirtAddr(i)*4096
				if _, err := pt.Map(vas[i].PageNumber(addr.Page4K), addr.Page4K, addr.PPN(i+1)); err != nil {
					t.Fatal(err)
				}
				m.Translate(vas[i]) // warm the TLBs
			}
			if n := testing.AllocsPerRun(1000, func() {
				got, _, _ := m.TranslateBatchPAs(vas[:], pas[:])
				if got != BatchWidth {
					t.Fatalf("warm batch resolved %d/%d", got, BatchWidth)
				}
			}); n != 0 {
				t.Errorf("TranslateBatchPAs allocates %v objects per call", n)
			}
		})
	}
}
