package tlb

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// TestLookupBatchPAsMatchesScalar drives a lookup stream through
// LookupBatchPAs on the Table III hierarchy and checks element-wise
// physical addresses, the aggregate (n, l1, latSum, missLat) tuple, every
// TLB's counters and the resident entries against refHierarchy, the
// copy-shift reference model, fed the same stream one LookupVA at a time.
// Misses are refilled into both, as the MMU's walk would, so LRU state
// keeps evolving across the whole stream.
func TestLookupBatchPAsMatchesScalar(t *testing.T) {
	batch := NewTableIII()
	ref := refOf(batch)
	rng := rand.New(rand.NewSource(5))

	// Working set: 4K pages plus a few 2M and 1G mappings, so lookups that
	// miss at 4K and hit a larger size run alongside 4K hits.
	base := addr.VirtAddr(0x4000_0000)
	payFor := func(va addr.VirtAddr, s addr.PageSize) uint64 {
		return uint64(va.PageNumber(s)) + 1000
	}
	insertBoth := func(va addr.VirtAddr, s addr.PageSize) {
		batch.Insert(va, s, payFor(va, s))
		ref.insert(va, s, payFor(va, s))
	}
	sizeOf := func(va addr.VirtAddr) addr.PageSize {
		switch {
		case va >= 0x100_0000_0000:
			return addr.Page1G
		case va >= 0x8000_0000:
			return addr.Page2M
		}
		return addr.Page4K
	}
	for i := 0; i < 64; i++ {
		insertBoth(base+addr.VirtAddr(i)*4096, addr.Page4K)
	}
	for i := 0; i < 8; i++ {
		insertBoth(addr.VirtAddr(0x8000_0000)+addr.VirtAddr(i)*2*addr.MB, addr.Page2M)
	}
	insertBoth(0x100_0000_0000, addr.Page1G)

	vas := make([]addr.VirtAddr, 4000)
	for i := range vas {
		switch rng.Intn(8) {
		case 0: // 2M-mapped region (4K miss, 2M hit)
			vas[i] = addr.VirtAddr(0x8000_0000) + addr.VirtAddr(rng.Intn(8))*2*addr.MB + addr.VirtAddr(rng.Intn(1<<21))
		case 1: // 1G-mapped region
			vas[i] = 0x100_0000_0000 + addr.VirtAddr(rng.Intn(1<<27))
		default: // 4K pages, wider than the TLBs so misses occur
			vas[i] = base + addr.VirtAddr(rng.Intn(4096))*4096
		}
	}

	segments := []int{1, 5, 31, 64, 64, 17}
	var pas [BatchWidth]addr.PhysAddr
	pos, seg := 0, 0
	for pos < len(vas) {
		k := segments[seg%len(segments)]
		seg++
		if k > len(vas)-pos {
			k = len(vas) - pos
		}
		n, l1, latSum, missLat := batch.LookupBatchPAs(vas[pos:pos+k], pas[:k])

		var wantL1, wantLat uint64
		for i := 0; i < n; i++ {
			va := vas[pos+i]
			r, s, pay, lat := ref.lookupVA(va)
			if r == MissAll {
				t.Fatalf("pos %d+%d: batch resolved an element the reference misses", pos, i)
			}
			if r == HitL1 {
				wantL1++
			}
			wantLat += lat
			if want := addr.Translate(va, addr.PPN(pay), s); pas[i] != want {
				t.Fatalf("pos %d+%d (va %#x): pa %#x, reference %#x", pos, i, va, pas[i], want)
			}
		}
		if l1 != wantL1 || latSum != wantLat {
			t.Fatalf("pos %d: batch (l1=%d lat=%d), reference (l1=%d lat=%d)", pos, l1, latSum, wantL1, wantLat)
		}
		if n < k {
			va := vas[pos+n]
			r, _, _, lat := ref.lookupVA(va)
			if r != MissAll {
				t.Fatalf("pos %d: batch stopped at element %d but the reference hit (%v)", pos, n, r)
			}
			if missLat != lat {
				t.Fatalf("pos %d: miss latency %d, reference %d", pos, missLat, lat)
			}
			// Refill both hierarchies, as the page walk would, and move past
			// the serviced element.
			insertBoth(va, sizeOf(va))
			pos += n + 1
			continue
		}
		if missLat != 0 {
			t.Fatalf("pos %d: full batch resolved but missLat = %d", pos, missLat)
		}
		pos += n
	}

	checkRef(t, len(vas), batch, ref)
}
