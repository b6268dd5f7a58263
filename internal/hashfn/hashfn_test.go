package hashfn

import (
	"hash/crc64"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	f := New(42)
	if f.Hash(123) != f.Hash(123) {
		t.Error("Hash is not deterministic")
	}
	g := New(42)
	if f.Hash(999) != g.Hash(999) {
		t.Error("same-seed functions disagree")
	}
}

func TestSeedIndependence(t *testing.T) {
	f, g := New(1), New(2)
	same := 0
	for k := uint64(0); k < 1000; k++ {
		if f.Hash(k) == g.Hash(k) {
			same++
		}
	}
	if same > 1 {
		t.Errorf("different seeds collide on %d/1000 keys", same)
	}
}

func TestIndexPowerOfTwo(t *testing.T) {
	f := New(7)
	check := func(key uint64, shift uint8) bool {
		size := uint64(1) << (shift%20 + 1)
		return f.Index(key, size) < size
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestUniformity verifies that sequential VPNs (the common page-table
// pattern) spread evenly across a power-of-two table.
func TestUniformity(t *testing.T) {
	const (
		buckets = 64
		keys    = 64 * 1024
	)
	for _, f := range Family(99, 3) {
		counts := make([]int, buckets)
		for k := uint64(0); k < keys; k++ {
			counts[f.Index(k, buckets)]++
		}
		mean := keys / buckets
		for b, c := range counts {
			if c < mean*3/4 || c > mean*5/4 {
				t.Errorf("seed %d bucket %d count %d out of [%d,%d]",
					f.seed, b, c, mean*3/4, mean*5/4)
			}
		}
	}
}

func TestFamilyDistinctSeeds(t *testing.T) {
	fam := Family(0, 8)
	seen := make(map[uint64]bool)
	for _, f := range fam {
		if seen[f.seed] {
			t.Fatalf("duplicate seed %d in family", f.seed)
		}
		seen[f.seed] = true
	}
}

// TestUpsizeBitProperty checks the in-place-resizing invariant the paper's
// Section IV-C relies on: indexing a 2x table uses the same low bits plus one
// extra bit, so the new index is either the old index or old index + oldSize.
func TestUpsizeBitProperty(t *testing.T) {
	f := New(5)
	check := func(key uint64) bool {
		old := f.Index(key, 1024)
		nw := f.Index(key, 2048)
		return nw == old || nw == old+1024
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkHash(b *testing.B) {
	f := New(3)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= f.Hash(uint64(i))
	}
	_ = sink
}

// TestCRCWordsMatchesChecksum pins the inline two-word CRC against the
// hash/crc64 reference it replaced: the hot path must produce the exact
// checksum the original byte-buffer formulation produced.
func TestCRCWordsMatchesChecksum(t *testing.T) {
	ref := func(a, b uint64) uint64 {
		var buf [16]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(a >> (8 * i))
			buf[i+8] = byte(b >> (8 * i))
		}
		return crc64.Checksum(buf[:], crcTable)
	}
	check := func(a, b uint64) bool { return crcWords(a, b) == ref(a, b) }
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	for _, v := range [][2]uint64{{0, 0}, {^uint64(0), ^uint64(0)}, {1, 0}, {0, 1}} {
		if crcWords(v[0], v[1]) != ref(v[0], v[1]) {
			t.Errorf("crcWords(%#x, %#x) diverges from crc64.Checksum", v[0], v[1])
		}
	}
}

// TestRawCRCFolded pins the single-pass folded rawCRC against the
// unfolded two-block formulation it replaced: for every (seed, key),
// doubleBlockCRC(key ^ pre) ^ post must equal
// crcWords(key ^ seed·M, seed) bit-for-bit.
func TestRawCRCFolded(t *testing.T) {
	check := func(seed, key uint64) bool {
		return New(seed).rawCRC(key) == crcWords(key^(seed*seedMul), seed)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	for _, seed := range []uint64{0, 1, ^uint64(0), 0x6A09E667F3BCC909} {
		f := New(seed)
		for _, key := range []uint64{0, 1, ^uint64(0), seed} {
			if got, want := f.rawCRC(key), crcWords(key^(seed*seedMul), seed); got != want {
				t.Errorf("seed %#x key %#x: folded %#x != unfolded %#x", seed, key, got, want)
			}
		}
	}
}

// TestBlockCRCByteReference pins the slicing-by-8 block fold against a
// plain byte-at-a-time CRC step loop — the formulation crcWords used before
// the tables existed.
func TestBlockCRCByteReference(t *testing.T) {
	byteRef := func(crc, w uint64) uint64 {
		for i := 0; i < 8; i++ {
			crc = crcTable[byte(crc)^byte(w)] ^ (crc >> 8)
			w >>= 8
		}
		return crc
	}
	check := func(crc, w uint64) bool {
		return blockCRC(crc^w) == byteRef(crc, w) &&
			doubleBlockCRC(crc^w) == blockCRC(byteRef(crc, w))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestMixerMatchesHash is the equality property the determinism contract
// requires: for any family and any key, Mixer.HashAt must reproduce
// Func.Hash bit-for-bit — the CRC-affinity shortcut must be invisible.
func TestMixerMatchesHash(t *testing.T) {
	for _, ways := range []int{2, 3, 4, 8} {
		for _, base := range []uint64{0, 1, 42, 0xDEADBEEF, ^uint64(0) / 3} {
			fns := Family(base, ways)
			m := NewMixer(fns)
			check := func(key uint64) bool {
				crc := m.CRC(key)
				for i, f := range fns {
					if m.HashAt(i, crc) != f.Hash(key) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, nil); err != nil {
				t.Errorf("ways=%d base=%d: %v", ways, base, err)
			}
		}
	}
}

// TestMixerArbitraryFuncs checks the affinity identity for Funcs that are
// not a Family (arbitrary seeds), which the Mixer must also support.
func TestMixerArbitraryFuncs(t *testing.T) {
	fns := []Func{New(7), New(^uint64(0)), New(12345678901234567)}
	m := NewMixer(fns)
	for key := uint64(0); key < 4096; key++ {
		crc := m.CRC(key)
		for i, f := range fns {
			if got, want := m.HashAt(i, crc), f.Hash(key); got != want {
				t.Fatalf("way %d key %d: mixer %#x != hash %#x", i, key, got, want)
			}
		}
	}
}

// TestHashAllocFree guards the hot path: hashing must never allocate.
func TestHashAllocFree(t *testing.T) {
	f := New(3)
	m := NewMixer(Family(3, 3))
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() {
		sink ^= f.Hash(sink)
	}); n != 0 {
		t.Errorf("Func.Hash allocates %v objects per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		crc := m.CRC(sink)
		sink ^= m.HashAt(0, crc) ^ m.HashAt(1, crc) ^ m.HashAt(2, crc)
	}); n != 0 {
		t.Errorf("Mixer probe allocates %v objects per call", n)
	}
}

func BenchmarkMixer3Ways(b *testing.B) {
	m := NewMixer(Family(3, 3))
	var sink uint64
	for i := 0; i < b.N; i++ {
		crc := m.CRC(uint64(i))
		sink ^= m.HashAt(0, crc) ^ m.HashAt(1, crc) ^ m.HashAt(2, crc)
	}
	_ = sink
}

func BenchmarkHash3Ways(b *testing.B) {
	fns := Family(3, 3)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= fns[0].Hash(uint64(i)) ^ fns[1].Hash(uint64(i)) ^ fns[2].Hash(uint64(i))
	}
	_ = sink
}
