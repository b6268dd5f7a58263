package snapshot

import "math/rand"

// The lags of math/rand's additive lagged-Fibonacci generator: output n is
// x[n] = x[n-ringLen] + x[n-ringTap] mod 2^64.
const (
	ringLen = 607
	ringTap = 273
)

// Source is a random source that counts its draws, so a generator's exact
// stream position can be checkpointed as (seed, draws) and restored by
// replaying the same number of primitive steps. Its stream is math/rand's:
// it is seeded as rand.NewSource(seed) is and runs the same
// lagged-Fibonacci recurrence, so a caller drawing Int63 and Float64 from
// it directly sees the values a Rand over rand.NewSource(seed) returns,
// without an interface call per draw.
//
// It deliberately implements only the plain rand.Source interface (Int63
// + Seed): every rand.Rand method the simulator uses composes its values
// from Int63 calls on a non-Source64 source, so a Rand over a Source
// produces the byte-identical stream of a Rand over rand.NewSource(seed).
// (The one exception is Rand.Uint64, which taps the native 64-bit step
// when the source implements Source64; no simulator generator draws it,
// and the composed fallback is just as deterministic and replayable.)
//
// Counting must live at the source level, not at the Rand level: methods
// like Float64 have internal re-draw loops, so "calls to Float64" is not a
// replayable position but "Int63 steps of the source" is.
type Source struct {
	seed  int64
	draws uint64
	// ring[i] holds the output ringLen steps before the one that next
	// replaces it; pos is the slot the next step replaces.
	// Not in the snapshot: RestoreSource re-derives the ring by reseeding with Seed and burning Draws steps
	ring [ringLen]uint64
	// Not in the snapshot: re-derived with the ring by reseeding and burning Draws steps
	pos int
}

// NewSource returns a counting source with the same stream as
// rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed reseeds the source and resets the draw count. It runs math/rand's
// seeding: the seed's Park–Miller sequence, three steps to a word, xored
// with math/rand's fixed ring constant, which cooked holds.
func (s *Source) Seed(seed int64) {
	s.seed, s.draws, s.pos = seed, 0, 0
	s.mix(seed, &cooked)
}

// mix fills the ring with the seed's words xored with key, in ring order:
// the word math/rand stores at vec[i] goes to slot
// (ringLen-ringTap-1-i) mod ringLen, since math/rand steps its indexes
// down where the ring steps up.
func (s *Source) mix(seed int64, key *[ringLen]uint64) {
	seed %= parkMiller
	if seed < 0 {
		seed += parkMiller
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for range 20 {
		x = seedrand(x)
	}
	k := ringLen - ringTap - 1
	for range ringLen {
		x = seedrand(x)
		u := x << 40
		x = seedrand(x)
		u ^= x << 20
		x = seedrand(x)
		s.ring[k] = u ^ x ^ key[k]
		if k--; k < 0 {
			k += ringLen
		}
	}
}

// parkMiller is the modulus of the minimal standard generator math/rand
// seeds with, the Mersenne prime 2^31-1.
const parkMiller = 1<<31 - 1

// seedrand is one step of that generator, x*48271 mod 2^31-1, for x in
// [1, 2^31-2]. Folding the product's high bits onto its low ones reduces
// it mod the Mersenne prime without math/rand's two divisions.
func seedrand(x uint64) uint64 {
	p := x * 48271
	p = p&parkMiller + p>>31
	if p >= parkMiller {
		p -= parkMiller
	}
	return p
}

// cooked is math/rand's ring constant in ring order. It is solved once
// from the stdlib's own stream rather than copied: the ring that emits
// rand.NewSource(1)'s outputs o[0], o[1], ... holds x[k-ringLen] in slot
// k, solved from the first ringLen outputs by x[k-ringLen] = o[k] -
// x[k-ringTap], from the last k down, so x[k-ringTap] is an output not
// yet overwritten or a slot already solved; xoring out seed 1's words
// leaves the constant.
var cooked = func() (c [ringLen]uint64) {
	var s Source
	std := rand.NewSource(1).(rand.Source64)
	for k := range s.ring {
		s.ring[k] = std.Uint64()
	}
	for k := ringLen - 1; k >= 0; k-- {
		s.ring[k] -= s.ring[(k+ringLen-ringTap)%ringLen]
	}
	s.mix(1, &s.ring)
	return s.ring
}()

// step advances the recurrence one output. It stays unexported, so that a
// rand.Rand over the source never sees a Source64.
func (s *Source) step() uint64 {
	i := s.pos
	j := i + ringLen - ringTap // the slot holding x[n-ringTap]
	if j >= ringLen {
		j -= ringLen
	}
	x := s.ring[i] + s.ring[j]
	s.ring[i] = x
	if i++; i == ringLen {
		i = 0
	}
	s.pos = i
	return x
}

// Int63 draws one primitive step.
func (s *Source) Int63() int64 {
	s.draws++
	return int64(s.step() & (1<<63 - 1))
}

// Float64 returns what rand.Rand.Float64 returns over this source: a
// value in [0, 1) from one Int63 step, redrawn in the rare case the
// division rounds up to 1.
func (s *Source) Float64() float64 {
again:
	f := float64(s.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// SourceState is the serializable position of a Source.
type SourceState struct {
	Seed  int64
	Draws uint64
}

// State returns the current stream position.
func (s *Source) State() SourceState {
	return SourceState{Seed: s.seed, Draws: s.draws}
}

// RestoreSource recreates a source at the recorded position by reseeding
// and burning the recorded number of steps.
func RestoreSource(st SourceState) *Source {
	s := &Source{}
	s.Restore(st)
	return s
}

// Restore repositions s in place to the recorded state.
func (s *Source) Restore(st SourceState) {
	s.Seed(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		s.step()
	}
	s.draws = st.Draws
}
