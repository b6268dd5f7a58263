package pt

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/addr"
)

// Slab fuzz ops, 3 bytes each: kind, then a 16-bit little-endian argument.
const (
	slabAlloc     = 0
	slabBulk      = 2
	slabFree      = 3
	slabSet       = 5
	slabRoundTrip = 7
	// slabCap bounds the clusters one input may allocate (about 576 KiB),
	// enough for backing blocks of up to ten chunks.
	slabCap = 48 * chunkLen
)

// slabOracle is the flat specification a Slab must match: the live
// clusters by id in checkpoint form, the free stack, and the next fresh id.
type slabOracle struct {
	live  map[uint64]Cluster
	ids   []uint64 // live ids, for picking one by argument
	free  []uint64
	fresh uint64
}

// alloc checks one Alloc against the oracle: a freed id comes back
// last-in first-out and zeroed, otherwise the next fresh id.
func (o *slabOracle) alloc(t *testing.T, op int, s *Slab) uint64 {
	t.Helper()
	want := o.fresh
	if k := len(o.free); k > 0 {
		want = o.free[k-1]
		o.free = o.free[:k-1]
	} else {
		o.fresh++
	}
	if id := s.Alloc(); id != want {
		t.Fatalf("op %d: Alloc = %d, want %d", op, id, want)
	}
	if *s.At(want) != (packedCluster{}) {
		t.Fatalf("op %d: Alloc handed out cluster %d unzeroed", op, want)
	}
	o.live[want] = Cluster{}
	o.ids = append(o.ids, want)
	return want
}

// check compares the slab's State with the oracle.
func (o *slabOracle) check(t *testing.T, op int, st SlabState) {
	t.Helper()
	if uint64(len(st.Clusters)) != o.fresh {
		t.Fatalf("op %d: State has %d clusters, oracle %d", op, len(st.Clusters), o.fresh)
	}
	if !slices.Equal(st.Free, o.free) {
		t.Fatalf("op %d: free list %v, oracle %v", op, st.Free, o.free)
	}
	for id, c := range o.live {
		if st.Clusters[id] != c {
			t.Fatalf("op %d: cluster %d = %+v, oracle %+v", op, id, st.Clusters[id], c)
		}
	}
}

// slabOpsSeeds are hand-written op sequences plus a few random ones, run
// as tier-1 tests.
func slabOpsSeeds() [][]byte {
	op := func(kind byte, arg uint16) []byte { return []byte{kind, byte(arg), byte(arg >> 8)} }
	cat := func(ops ...[]byte) []byte {
		var out []byte
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	seeds := [][]byte{
		// Fill chunk 0 past its end, pin and set clusters, grow through
		// single-chunk blocks; free, reuse, and round-trip mid-chunk; then
		// grow on through multi-chunk blocks, pinning and setting there.
		cat(op(slabBulk, chunkLen-1), op(slabSet, 5), op(slabSet, 4000), op(slabAlloc, 0),
			op(slabSet, 8190), op(slabBulk, chunkLen/4), op(slabSet, 9000), op(slabBulk, chunkLen/2),
			op(slabFree, 3), op(slabFree, 9000), op(slabFree, 12), op(slabAlloc, 0), op(slabSet, 0),
			op(slabRoundTrip, 0), op(slabBulk, chunkLen), op(slabSet, 20000), op(slabAlloc, 0),
			op(slabFree, 77), op(slabRoundTrip, 0), op(slabAlloc, 0), op(slabAlloc, 0),
			op(slabBulk, 8*chunkLen-1), op(slabBulk, 8*chunkLen-1), op(slabSet, 3000), op(slabAlloc, 0),
			op(slabBulk, 8*chunkLen-1), op(slabSet, 61000), op(slabFree, 500), op(slabRoundTrip, 0),
			op(slabBulk, 8*chunkLen-1), op(slabAlloc, 0), op(slabSet, 45000), op(slabAlloc, 0),
			op(slabBulk, 8*chunkLen-1), op(slabSet, 65000), op(slabAlloc, 0), op(slabRoundTrip, 0)),
		// Free everything small, then reuse in LIFO order.
		cat(op(slabAlloc, 0), op(slabAlloc, 0), op(slabAlloc, 0), op(slabSet, 1), op(slabFree, 0),
			op(slabFree, 0), op(slabFree, 0), op(slabRoundTrip, 0), op(slabAlloc, 0), op(slabAlloc, 0),
			op(slabSet, 0), op(slabAlloc, 0), op(slabAlloc, 0)),
	}
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzSlabOps decodes the input into 3-byte ops — alloc, a bulk alloc
// that crosses chunk boundaries, free, set, State→Restore→State — and
// checks the slab against a flat id → Cluster oracle: ids come back from
// the free list last-in first-out, contents match, the State round trip
// is exact, and a pointer At returned still is At's pointer for that id
// after later ops short of a Restore.
func FuzzSlabOps(f *testing.F) {
	for _, s := range slabOpsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		var s Slab
		o := &slabOracle{live: map[uint64]Cluster{}}
		pins := map[uint64]*packedCluster{}
		// pin records At's pointer for id.
		pin := func(id uint64) {
			if len(pins) < 64 {
				pins[id] = s.At(id)
			}
		}
		for i := 0; i+3 <= len(data); i += 3 {
			op, arg := i/3, uint64(data[i+1])|uint64(data[i+2])<<8
			switch data[i] % 8 {
			case slabAlloc, 1:
				if o.fresh < slabCap {
					pin(o.alloc(t, op, &s))
				}
			case slabBulk:
				n := 1 + arg%(8*chunkLen)
				for k := uint64(0); k < n && o.fresh < slabCap; k++ {
					o.alloc(t, op, &s)
				}
			case slabFree, 4:
				if len(o.ids) == 0 {
					continue
				}
				j := arg % uint64(len(o.ids))
				id := o.ids[j]
				o.ids[j] = o.ids[len(o.ids)-1]
				o.ids = o.ids[:len(o.ids)-1]
				delete(o.live, id)
				o.free = append(o.free, id)
				s.Free(id)
			case slabSet, 6:
				if len(o.ids) == 0 {
					continue
				}
				id := o.ids[arg%uint64(len(o.ids))]
				sub, ppn := uint(arg>>12)%ClusterSpan, addr.PPN(op+1)
				s.At(id).set(sub, ppn)
				c := o.live[id]
				c.ValidMask |= 1 << sub
				c.PPNs[sub] = ppn
				o.live[id] = c
				if got := s.At(id).export(); got != c {
					t.Fatalf("op %d: cluster %d = %+v after set, oracle %+v", op, id, got, c)
				}
				pin(id)
			case slabRoundTrip:
				st := s.State()
				o.check(t, op, st)
				var q Slab
				if err := q.Restore(st); err != nil {
					t.Fatalf("op %d: Restore: %v", op, err)
				}
				if got := q.State(); !reflect.DeepEqual(got, st) {
					t.Fatalf("op %d: State→Restore→State differs", op)
				}
				s = q
				clear(pins) // the restored slab holds new chunks
			}
			for id, p := range pins {
				if s.At(id) != p {
					t.Fatalf("op %d: pointer to cluster %d moved", op, id)
				}
			}
		}
		o.check(t, len(data)/3, s.State())
	})
}

// TestSlabGrowthAllocatesLiveBytesOnce: growing a slab to a tenant-sized
// 1000 clusters, to 5000 or to 600k allocates at most 1.3× the bytes its
// packed clusters occupy: no bytes are copied, and the last backing block
// leaves under a quarter of slack. Growing the first 8192 clusters by
// append, as the slab once did, allocated 3.2× at 1000 and 3.4× at 5000; a
// flat slice grown by append allocates about 5× at 600k.
func TestSlabGrowthAllocatesLiveBytesOnce(t *testing.T) {
	for _, clusters := range []int{1000, 5000, 600_000} {
		var s Slab
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < clusters; i++ {
			s.Alloc()
		}
		runtime.ReadMemStats(&after)
		live := float64(clusters) * float64(unsafe.Sizeof(packedCluster{}))
		got := float64(after.TotalAlloc-before.TotalAlloc) / live
		if got > 1.3 {
			t.Errorf("growing to %d clusters allocated %.3f× the live cluster bytes, want ≤ 1.3×", clusters, got)
		}
		runtime.KeepAlive(&s)
	}
}
