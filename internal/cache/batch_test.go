package cache

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// batchTestPAs builds a physical-address stream mixing L1-resident reuse,
// an L2/L3-sized working set, and DRAM-wide strides, so accesses hit at
// every level and at DRAM.
func batchTestPAs(seed int64, n int) []addr.PhysAddr {
	rng := rand.New(rand.NewSource(seed))
	pas := make([]addr.PhysAddr, n)
	for i := range pas {
		switch rng.Intn(4) {
		case 0:
			pas[i] = addr.PhysAddr(rng.Intn(32)) * 64 // hot lines
		case 1:
			pas[i] = addr.PhysAddr(rng.Intn(1<<12)) * 64 // L2/L3 working set
		default:
			pas[i] = addr.PhysAddr(rng.Intn(1<<22)) * 64 // DRAM-heavy
		}
	}
	return pas
}

// TestAccessBatchMatchesScalar drives AccessBatch over arbitrary
// (including zero, single, and non-multiple-of-chunk) segment lengths on
// the Table III hierarchy and checks every latency, every level's
// counters, the DRAM count and the State snapshot against refHierarchy,
// the copy-shift reference model.
func TestAccessBatchMatchesScalar(t *testing.T) {
	h := NewHierarchy(TableIII())
	ref := newRefHierarchy(TableIII())
	pas := batchTestPAs(3, 6000)
	segments := []int{0, 1, 5, 31, 64, 97, 200, 1}

	lats := make([]uint64, len(pas))
	pos, seg := 0, 0
	for pos < len(pas) {
		k := segments[seg%len(segments)]
		seg++
		if k > len(pas)-pos {
			k = len(pas) - pos
		}
		h.AccessBatch(pas[pos:pos+k], lats[pos:pos+k])
		pos += k
	}
	for i, pa := range pas {
		if want := ref.access(pa); lats[i] != want {
			t.Fatalf("access %d (pa %#x): batch latency %d, reference %d", i, pa, lats[i], want)
		}
	}
	checkRef(t, len(pas), h, ref)
	// The warmed states must stay aligned, not just the counters: replaying
	// the stream once more must agree element-wise again.
	for _, pa := range pas[:500] {
		var one [1]uint64
		h.AccessBatch([]addr.PhysAddr{pa}, one[:])
		if want := ref.access(pa); one[0] != want {
			t.Fatalf("post-warm access (pa %#x): batch %d, reference %d", pa, one[0], want)
		}
	}
	checkRef(t, len(pas)+500, h, ref)
}

// TestAccessBatchAllocFree guards the batched data path: a full-width
// batch must not allocate.
func TestAccessBatchAllocFree(t *testing.T) {
	h := NewHierarchy(TableIII())
	pas := batchTestPAs(9, 64)
	lats := make([]uint64, len(pas))
	if n := testing.AllocsPerRun(1000, func() {
		h.AccessBatch(pas, lats)
	}); n != 0 {
		t.Errorf("AccessBatch allocates %v objects per call", n)
	}
}
