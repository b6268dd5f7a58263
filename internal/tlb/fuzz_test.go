package tlb

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// fuzzHierarchy decodes twelve bytes into a hierarchy: per page size and
// level, 1–40 entries and 0 to entries+1 ways, so fully associative TLBs
// (0 or too many ways) and set and way counts that are not powers of two
// occur.
func fuzzHierarchy(b []byte) *Hierarchy {
	h := &Hierarchy{}
	for s := range h.l1 {
		cfg := func(i int, lat uint64) Config {
			entries := 1 + int(b[4*s+i]%40)
			return Config{Entries: entries, Ways: int(b[4*s+i+1]) % (entries + 2), Latency: lat}
		}
		h.l1[s], h.l2[s] = New(cfg(0, 2)), New(cfg(2, 12))
	}
	return h
}

// fuzzVA decodes three bytes into an address over 256 4KB pages, 4 2MB
// pages and 2 1GB pages, with an offset inside the 4KB page, so that the
// small fuzz TLBs both hit and evict at every page size.
func fuzzVA(b0, b1, b2 byte) addr.VirtAddr {
	return addr.VirtAddr(uint64(b0&63)<<12 | uint64(b1&1)<<21 | uint64(b2&1)<<30 | uint64(b1>>1)<<4)
}

// FuzzHierarchyOps decodes a geometry (12 bytes) and a sequence of 4-byte
// ops — LookupVA, Lookup at one page size, LookupBatchPAs of width 0–64,
// Insert, Invalidate and, rarely, Flush — and checks the ring-ordered TLBs against
// refHierarchy, a per-set MRU slice with copy-shift, after every op: each
// call's results, every TLB's counters and VisitEntries in recency order.
func FuzzHierarchyOps(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		b := make([]byte, 12+4*200)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		if len(data) > 12+4*256 {
			data = data[:12+4*256]
		}
		h := fuzzHierarchy(data)
		ref := refOf(h)
		var vas [BatchWidth + 1]addr.VirtAddr
		var pas [BatchWidth + 1]addr.PhysAddr
		for i := 12; i+4 <= len(data); i += 4 {
			op, va := data[i], fuzzVA(data[i+1], data[i+2], data[i+3])
			size := addr.Sizes()[int(op/8)%len(addr.Sizes())]
			switch op % 8 {
			case 0, 1:
				r, s, pay, lat := h.LookupVA(va)
				wr, ws, wpay, wlat := ref.lookupVA(va)
				if r != wr || s != ws || pay != wpay || lat != wlat {
					t.Fatalf("op %d: LookupVA(%#x) = %v %v %d %d, reference %v %v %d %d",
						i/4, uint64(va), r, s, pay, lat, wr, ws, wpay, wlat)
				}
			case 2:
				r, pay, lat := h.Lookup(va, size)
				wr, wpay, wlat := ref.lookup(va, size)
				if r != wr || pay != wpay || lat != wlat {
					t.Fatalf("op %d: Lookup(%#x, %v) = %v %d %d, reference %v %d %d",
						i/4, uint64(va), size, r, pay, lat, wr, wpay, wlat)
				}
			case 3:
				// One more element than BatchWidth may be offered; the
				// call must consume at most BatchWidth.
				k := int(data[i+1]) % (len(vas) + 1)
				rng := rand.New(rand.NewSource(int64(data[i+2])))
				for j := range vas[:k] {
					vas[j] = fuzzVA(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(2)))
				}
				n, l1, latSum, missLat := h.LookupBatchPAs(vas[:k], pas[:k])
				var wl1, wlat, wmiss uint64
				wn := 0
				for ; wn < min(k, BatchWidth); wn++ {
					r, s, pay, lat := ref.lookupVA(vas[wn])
					if r == MissAll {
						wmiss = lat
						break
					}
					if r == HitL1 {
						wl1++
					}
					wlat += lat
					if want := addr.Translate(vas[wn], addr.PPN(pay), s); pas[wn] != want {
						t.Fatalf("op %d: LookupBatchPAs element %d pa %#x, reference %#x", i/4, wn, pas[wn], want)
					}
				}
				if n != wn || l1 != wl1 || latSum != wlat || missLat != wmiss {
					t.Fatalf("op %d: LookupBatchPAs of %d = (%d, %d, %d, %d), reference (%d, %d, %d, %d)",
						i/4, k, n, l1, latSum, missLat, wn, wl1, wlat, wmiss)
				}
			case 4, 5:
				h.Insert(va, size, uint64(i))
				ref.insert(va, size, uint64(i))
			case 6:
				h.Invalidate(va, size)
				ref.invalidate(va, size)
			case 7:
				if op < 64 { // one op in 32: flushes empty every TLB
					h.Flush()
					ref.flush()
				}
			}
			checkRef(t, i/4, h, ref)
		}
	})
}
