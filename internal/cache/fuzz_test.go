package cache

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// fuzzGeometry decodes six bytes into a three-level hierarchy with 1–16
// ways, 1–12 sets (a single set is fully associative) and 32/64/128-byte
// lines per level, so set and way counts that are not powers of two occur.
func fuzzGeometry(b []byte) HierarchyConfig {
	level := func(wb, sb byte, lat uint64) Config {
		ways, sets := 1+int(wb%16), 1+uint64(sb%12)
		line := uint64(32) << (wb / 16 % 3)
		return Config{SizeBytes: sets * uint64(ways) * line, Ways: ways, LineBytes: line, Latency: lat}
	}
	return HierarchyConfig{
		L1:          level(b[0], b[1], 2),
		L2:          level(b[2], b[3], 16),
		L3:          level(b[4], b[5], 56),
		DRAMLatency: 200,
	}
}

// fuzzPA decodes two bytes into one of 1024 32-byte granules, few enough
// that the small fuzz geometries hit as well as miss.
func fuzzPA(b0, b1 byte) addr.PhysAddr {
	return addr.PhysAddr(uint64(b0)|uint64(b1&3)<<8) << 5
}

// FuzzHierarchyOps decodes a geometry (6 bytes) and a sequence of 3-byte
// ops — Access, AccessBatch of width 0–64 and State→Restore — and checks
// the hierarchy against refHierarchy, a per-set MRU slice with copy-shift,
// after every op: latencies, every level's counters, the DRAM count and the
// State snapshot.
func FuzzHierarchyOps(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		b := make([]byte, 6+3*200)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	// A direct-mapped L1, an 8-way L2 and a fully associative 16-way L3.
	f.Add([]byte{0, 5, 7, 11, 15, 0, 0, 1, 0, 0, 1, 0, 3, 64, 7, 4, 2, 0, 5, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		if len(data) > 6+3*256 {
			data = data[:6+3*256]
		}
		cfg := fuzzGeometry(data)
		h, ref := NewHierarchy(cfg), newRefHierarchy(cfg)
		var pas [64]addr.PhysAddr
		var lats [64]uint64
		for i := 6; i+3 <= len(data); i += 3 {
			op, b1, b2 := data[i], data[i+1], data[i+2]
			switch op % 8 {
			case 4, 5:
				n := int(b1) % (len(pas) + 1)
				rng := rand.New(rand.NewSource(int64(b2)))
				for k := range pas[:n] {
					pas[k] = fuzzPA(byte(rng.Intn(256)), byte(rng.Intn(4)))
				}
				h.AccessBatch(pas[:n], lats[:n])
				for k, pa := range pas[:n] {
					if want := ref.access(pa); lats[k] != want {
						t.Fatalf("op %d: AccessBatch element %d of %d latency %d, reference %d", i/3, k, n, lats[k], want)
					}
				}
			case 7:
				r, err := RestoreHierarchy(cfg, h.State())
				if err != nil {
					t.Fatalf("op %d: RestoreHierarchy of a live state: %v", i/3, err)
				}
				h = r
			default:
				if got, want := h.Access(fuzzPA(b1, b2)), ref.access(fuzzPA(b1, b2)); got != want {
					t.Fatalf("op %d: Access latency %d, reference %d", i/3, got, want)
				}
			}
			checkRef(t, i/3, h, ref)
		}
	})
}
