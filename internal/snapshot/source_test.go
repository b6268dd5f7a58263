package snapshot

// Source proof obligations: a Rand over a counting Source is byte-identical
// to a Rand over rand.NewSource (the substitution that made the simulator
// checkpointable must not move any fingerprint), and restoring a recorded
// (seed, draws) position resumes the stream exactly where it left off —
// including through Float64's internal re-draw loop.

import (
	"math/rand"
	"testing"
)

func TestStreamMatchesPlainSource(t *testing.T) {
	// Every Rand method the simulator draws (Int63, Float64, Intn, Perm,
	// Shuffle — all Int63-composed) must match a Rand over rand.NewSource.
	// Rand.Uint64 is deliberately absent: it taps the native Source64 step
	// on a plain source, which no simulator generator uses.
	counted := rand.New(NewSource(42))
	plain := rand.New(rand.NewSource(42))
	for i := 0; i < 4096; i++ {
		switch i % 3 {
		case 0:
			if a, b := counted.Int63(), plain.Int63(); a != b {
				t.Fatalf("draw %d: Int63 %d != %d", i, a, b)
			}
		case 1:
			if a, b := counted.Float64(), plain.Float64(); a != b {
				t.Fatalf("draw %d: Float64 %v != %v", i, a, b)
			}
		case 2:
			if a, b := counted.Intn(97), plain.Intn(97); a != b {
				t.Fatalf("draw %d: Intn %d != %d", i, a, b)
			}
		}
	}
	a, b := counted.Perm(31), plain.Perm(31)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Perm[%d] = %d, want %d", i, a[i], b[i])
		}
	}
}

// TestDirectDrawsMatchStdlib: the source's own Int63 and Float64, drawn
// without a Rand, match a Rand over rand.NewSource for 12k mixed draws on
// seeds that cover math/rand's seed reduction (0, negative, above 2^31),
// and a source restored at any recorded position resumes the stdlib
// stream there.
func TestDirectDrawsMatchStdlib(t *testing.T) {
	for _, seed := range []int64{0, 1, -5, 42, 1 << 40, -1 << 62} {
		src := NewSource(seed)
		std := rand.New(rand.NewSource(seed))
		for i := 0; i < 12_000; i++ {
			if i%2 == 0 {
				if a, b := src.Int63(), std.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, a, b)
				}
			} else if a, b := src.Float64(), std.Float64(); a != b {
				t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, a, b)
			}
			if i%4001 == 0 {
				r := RestoreSource(src.State())
				for k := 0; k < 700; k++ {
					if a, b := r.Int63(), src.Int63(); a != b {
						t.Fatalf("seed %d: restored at draw %d, step %d: %d != %d", seed, i, k, a, b)
					}
				}
				for k := 0; k < 700; k++ {
					std.Int63()
				}
			}
		}
	}
}

func TestRestoreResumesStream(t *testing.T) {
	src := NewSource(7)
	r := rand.New(src)
	for i := 0; i < 1000; i++ {
		r.Float64() // re-draw loops make draw count != call count
	}
	st := src.State()

	want := make([]int64, 64)
	for i := range want {
		want[i] = r.Int63()
	}

	r2 := rand.New(RestoreSource(st))
	for i := range want {
		if got := r2.Int63(); got != want[i] {
			t.Fatalf("RestoreSource: draw %d = %d, want %d", i, got, want[i])
		}
	}

	src3 := NewSource(999)
	rand.New(src3).Int63() // position somewhere else first
	src3.Restore(st)
	r3 := rand.New(src3)
	for i := range want {
		if got := r3.Int63(); got != want[i] {
			t.Fatalf("in-place Restore: draw %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestStateCountsPrimitiveDraws(t *testing.T) {
	src := NewSource(1)
	if st := src.State(); st.Draws != 0 || st.Seed != 1 {
		t.Fatalf("fresh source state %+v", st)
	}
	src.Int63()
	src.Int63()
	if st := src.State(); st.Draws != 2 {
		t.Fatalf("after 2 draws, state %+v", st)
	}
	src.Seed(5)
	if st := src.State(); st.Draws != 0 || st.Seed != 5 {
		t.Fatalf("after reseed, state %+v", st)
	}
}
