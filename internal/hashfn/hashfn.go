// Package hashfn provides the seeded hash family used by the cuckoo page
// tables. The paper's hardware uses CRC units (Table III: 2-cycle latency);
// we use a CRC-64 over the virtual page number mixed with a per-way seed,
// which gives the same uniform-distribution properties the cuckoo analysis
// relies on.
//
// # Hot-path layout
//
// Hash is the single most expensive operation on the simulator's
// translation path: every table probe hashes the key once per way, and the
// CRC dominates. Two structural properties keep that cost down without
// changing a single hash value (the determinism contract pins them):
//
//   - The CRC runs inline over the two 64-bit words, with no byte-buffer
//     materialization and no call into hash/crc64's table dispatch.
//   - CRC-64 over a fixed-length message is an affine map over GF(2):
//     crc(a ⊕ b) = crc(a) ⊕ crc(b) ⊕ crc(0). For two functions of a family,
//     the 16-byte CRC inputs for the same key differ by a key-independent
//     constant, so their raw CRCs differ by a precomputable constant too.
//     A Mixer exploits this: one CRC pass per key, plus one XOR and one
//     finalizer per additional way (see NewMixer).
//   - The per-key CRC pass itself is table-folded. Slicing-by-8 turns one
//     8-byte block into eight independent table lookups (instead of eight
//     serially dependent byte steps), and because the block transform is
//     linear over GF(2), two consecutive blocks compose into a single
//     8-lookup pass through precomputed double-block tables. The seed word
//     — the second block of every rawCRC input — is constant per Func, so
//     its whole contribution folds into one precomputed XOR. A rawCRC is
//     eight independent loads plus two XORs, bit-identical to
//     crc64.Checksum over the 16-byte message (property-tested).
package hashfn

import "hash/crc64"

// Latency is the hash-unit latency in cycles charged by the timing model
// (Table III: "Hash functions: CRC, Latency: 2 cyc").
const Latency = 2

var crcTable = crc64.MakeTable(crc64.ECMA)

// sliceTable holds the slicing-by-8 helper tables: sliceTable[0] is the
// plain byte table, and sliceTable[j][v] advances the single-byte CRC state
// sliceTable[0][v] through j further zero bytes. With them, one 8-byte block
// folds into the state with eight independent loads (blockCRC) instead of
// eight serially dependent byte steps.
//
// Every table is linear over GF(2): tab[0] == 0 and tab[i^j] == tab[i]^tab[j]
// (CRC without pre/post-inversion is a linear map of the message bits). That
// linearity is what the double-block fold below and the Mixer both rely on.
var sliceTable = buildSliceTable()

// doubleTable composes two blockCRC passes: doubleTable[j][v] =
// blockCRC(sliceTable[7-j][v]), so that for any state x,
//
//	blockCRC(blockCRC(x)) = ⊕_{j=0..7} doubleTable[j][byte_j(x)]
//
// by linearity of blockCRC. It lets a 16-byte message whose second block is
// a per-Func constant be checksummed in a single 8-lookup pass (see rawCRC).
var doubleTable = buildDoubleTable()

func buildSliceTable() *[8][256]uint64 {
	var t [8][256]uint64
	t[0] = *crcTable
	for v := 0; v < 256; v++ {
		crc := t[0][v]
		for j := 1; j < 8; j++ {
			crc = t[0][crc&0xff] ^ (crc >> 8)
			t[j][v] = crc
		}
	}
	return &t
}

func buildDoubleTable() *[8][256]uint64 {
	var t [8][256]uint64
	for j := 0; j < 8; j++ {
		for v := 0; v < 256; v++ {
			t[j][v] = blockCRC(sliceTable[7-j][v])
		}
	}
	return &t
}

// blockCRC folds one 8-byte little-endian block already XORed into the CRC
// state x, using eight independent table loads (slicing-by-8). Folding a
// block b into state c is blockCRC(c ^ b).
func blockCRC(x uint64) uint64 {
	t := sliceTable
	return t[7][x&0xff] ^ t[6][(x>>8)&0xff] ^ t[5][(x>>16)&0xff] ^
		t[4][(x>>24)&0xff] ^ t[3][(x>>32)&0xff] ^ t[2][(x>>40)&0xff] ^
		t[1][(x>>48)&0xff] ^ t[0][x>>56]
}

// doubleBlockCRC is blockCRC applied twice, folded into one 8-lookup pass
// through doubleTable.
func doubleBlockCRC(x uint64) uint64 {
	t := doubleTable
	return t[0][x&0xff] ^ t[1][(x>>8)&0xff] ^ t[2][(x>>16)&0xff] ^
		t[3][(x>>24)&0xff] ^ t[4][(x>>32)&0xff] ^ t[5][(x>>40)&0xff] ^
		t[6][(x>>48)&0xff] ^ t[7][x>>56]
}

// seedMul is the multiplier folding the seed into the key word (golden
// ratio, as in splitmix64 seeding).
const seedMul = 0x9E3779B97F4A7C15

// Func is a seeded hash function over 64-bit keys (virtual page numbers).
// Two Funcs with different seeds behave as independent hash functions, which
// is what W-way cuckoo hashing requires.
//
// Funcs must be created with New (or Family): the constructor precomputes
// the folded seed constants that make rawCRC a single table pass.
type Func struct {
	seed uint64
	// pre is XORed into the key before the double-block table pass: it
	// carries both the seed mixing (seed*seedMul) and the CRC
	// pre-inversion (^0) of the initial state.
	pre uint64
	// post is XORed after the pass: the seed word's own contribution
	// blockCRC(seed) plus the CRC post-inversion. Derivation in rawCRC.
	post uint64
}

// New returns the hash function with the given seed. Distinct ways of a
// cuckoo table must use distinct seeds.
func New(seed uint64) Func {
	return Func{
		seed: seed,
		pre:  seed*seedMul ^ ^uint64(0),
		post: blockCRC(seed) ^ ^uint64(0),
	}
}

// crcWords computes crc64.Checksum(le64(a) || le64(b), ECMA) without
// materializing the byte buffer. TestCRCWordsMatchesChecksum pins the
// equivalence.
func crcWords(a, b uint64) uint64 {
	return ^blockCRC(blockCRC(^uint64(0)^a) ^ b)
}

// finalize is the splitmix64 avalanche applied to the raw CRC so low bits
// are well mixed even for sequential keys; cuckoo tables index with the low
// bits of the hash.
func finalize(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// rawCRC returns the CRC stage of Hash: the checksum over the seed-mixed
// key word followed by the seed word,
//
//	crcWords(key ^ seed·M, seed) = ^blockCRC(blockCRC(^0 ^ key ^ seed·M) ^ seed).
//
// By linearity blockCRC(x ^ seed) = blockCRC(x) ^ blockCRC(seed), so the
// whole thing collapses to one double-block table pass over the key plus
// the two per-Func constants precomputed by New:
//
//	rawCRC(key) = doubleBlockCRC(key ^ pre) ^ post
//
// Eight independent loads and two XORs per key. TestRawCRCFolded pins
// bit-identity against the two-pass crcWords form.
func (f Func) rawCRC(key uint64) uint64 {
	return doubleBlockCRC(key^f.pre) ^ f.post
}

// Hash returns the 64-bit hash of key.
func (f Func) Hash(key uint64) uint64 {
	return finalize(f.rawCRC(key))
}

// Index returns the hash of key reduced modulo size. Size must be a power of
// two; the reduction is a mask, mirroring the shift/mask hardware in the
// paper's L2P path.
func (f Func) Index(key, size uint64) uint64 {
	return f.Hash(key) & (size - 1)
}

// Family returns n independent hash functions derived from a base seed,
// one per cuckoo way.
func Family(base uint64, n int) []Func {
	fs := make([]Func, n)
	for i := range fs {
		fs[i] = New(base + uint64(i)*0x6A09E667F3BCC909 + 1)
	}
	return fs
}

// Mixer computes the hashes of one key under every function of a family
// with a single CRC pass.
//
// For way i, the 16-byte CRC input is le64(key ⊕ sᵢ·M) || le64(sᵢ). Against
// way 0 it differs by the key-independent word pair
// (s₀·M ⊕ sᵢ·M, s₀ ⊕ sᵢ), so by CRC affinity the raw CRCs satisfy
//
//	crcᵢ(key) = crc₀(key) ⊕ Δᵢ,  Δᵢ = crc(dᵢ) ⊕ crc(0)
//
// for a per-way constant Δᵢ computed once at construction. HashAt therefore
// reproduces Func.Hash bit-for-bit (property-tested) at the cost of one XOR
// and one finalizer instead of a full CRC per extra way. A Mixer is
// read-only after construction and safe for concurrent use.
type Mixer struct {
	base   Func
	deltas []uint64 // deltas[0] == 0
}

// NewMixer builds a Mixer over the family fns (as returned by Family; any
// set of Funcs works). fns must be non-empty.
func NewMixer(fns []Func) *Mixer {
	if len(fns) == 0 {
		panic("hashfn: NewMixer with empty family")
	}
	m := &Mixer{base: fns[0], deltas: make([]uint64, len(fns))}
	s0 := fns[0].seed
	zero := crcWords(0, 0)
	for i, f := range fns[1:] {
		d1 := (s0 * seedMul) ^ (f.seed * seedMul)
		d2 := s0 ^ f.seed
		m.deltas[i+1] = crcWords(d1, d2) ^ zero
	}
	return m
}

// CRC returns the raw (pre-finalizer) CRC of key under way 0, the shared
// intermediate every HashAt call reuses.
func (m *Mixer) CRC(key uint64) uint64 { return m.base.rawCRC(key) }

// HashAt returns way i's hash of the key whose way-0 raw CRC is crc0. It
// equals fns[i].Hash(key) exactly.
func (m *Mixer) HashAt(i int, crc0 uint64) uint64 {
	return finalize(crc0 ^ m.deltas[i])
}
