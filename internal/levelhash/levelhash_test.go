package levelhash

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// remove deletes key, reporting whether it was present. Section IX only
// inserts and looks up; removal exists so the model tests exercise the
// two-level structure with holes in it.
func (t *Table) remove(key uint64) bool {
	for _, b := range t.candidates(key) {
		for i := range b.slots {
			if b.slots[i].key == key {
				b.slots[i].key = EmptyKey
				b.slots[i].val = 0
				t.count--
				return true
			}
		}
	}
	return false
}

func TestInsertLookupDelete(t *testing.T) {
	tb := New(16, 1)
	for k := uint64(0); k < 100; k++ {
		if err := tb.Insert(k, k*3); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		v, ok := tb.Lookup(k)
		if !ok || v != k*3 {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := tb.Lookup(9999); ok {
		t.Error("phantom key")
	}
	if !tb.remove(50) {
		t.Fatal("remove(50) failed")
	}
	if _, ok := tb.Lookup(50); ok {
		t.Error("deleted key still present")
	}
	if tb.count != 99 {
		t.Errorf("count = %d", tb.count)
	}
}

func TestUpsert(t *testing.T) {
	tb := New(16, 1)
	tb.Insert(7, 1)
	tb.Insert(7, 2)
	if v, _ := tb.Lookup(7); v != 2 {
		t.Errorf("upsert value = %d", v)
	}
	if tb.count != 1 {
		t.Errorf("Len = %d after upsert", tb.count)
	}
}

func TestGrowth(t *testing.T) {
	tb := New(16, 2)
	const n = 50000
	for k := uint64(0); k < n; k++ {
		if err := tb.Insert(k, k^0xBEEF); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tb.Lookup(k)
		if !ok || v != k^0xBEEF {
			t.Fatalf("Lookup(%d) after growth = %d,%v", k, v, ok)
		}
	}
	if tb.stats.Resizes == 0 {
		t.Error("no resizes for 50k inserts into a 16-bucket table")
	}
}

// TestLevelStructure: the top level always has twice the bottom's buckets,
// and a resize doubles the top.
func TestLevelStructure(t *testing.T) {
	tb := New(16, 3)
	if len(tb.top) != 32 || len(tb.bot) != 16 {
		t.Fatalf("levels = %d/%d, want 32/16", len(tb.top), len(tb.bot))
	}
	before := len(tb.top)
	tb.resize()
	if len(tb.top) != 2*before {
		t.Errorf("top after resize = %d, want %d", len(tb.top), 2*before)
	}
	if len(tb.bot) != before {
		t.Errorf("old top did not become the new bottom")
	}
}

// TestSectionIXTradeoffs verifies the paper's comparison quantitatively:
// level hashing probes ~4 buckets per (missing) lookup where ME-HPT probes
// W=3 ways, and moves roughly the bottom level (~1/3 of entries) per
// resize, where ME-HPT in-place moves ~1/2.
func TestSectionIXTradeoffs(t *testing.T) {
	tb := New(64, 4)
	const n = 30000
	for k := uint64(0); k < n; k++ {
		tb.Insert(k, k)
	}
	// Missed lookups probe all four candidate buckets.
	tb2 := New(64, 4)
	for k := uint64(0); k < 100; k++ {
		tb2.Lookup(k + 1_000_000)
	}
	if p := tb2.ProbesPerLookup(); p != 4 {
		t.Errorf("probes per missing lookup = %.1f, want 4", p)
	}
	// Moves per resize ≈ the bottom level's share. Entries in the bottom
	// are roughly 1/3 (capacity ratio), so the per-resize move fraction
	// should be well under ME-HPT's 0.5 and near 1/3 of the *then-current*
	// population. We assert the loose paper-level property.
	st := tb.stats
	if st.Resizes == 0 {
		t.Fatal("no resizes happened")
	}
	movesPerResize := float64(st.Moves) / float64(st.Resizes)
	frac := movesPerResize / float64(n)
	if frac > 0.5 {
		t.Errorf("moves per resize = %.2f of final population; should be below 0.5", frac)
	}
}

// TestMoveFractionPerResize pins the §IX metric on the benchmark's case
// (40k inserts, seed 9): each resize moves about the bottom level's third
// of the entries present at that resize, not of the final population.
func TestMoveFractionPerResize(t *testing.T) {
	tb := New(64, 9)
	for k := uint64(0); k < 40000; k++ {
		if err := tb.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	got := tb.MoveFractionPerResize()
	t.Logf("%d resizes, mean moved fraction %.3f", tb.stats.Resizes, got)
	if got < 0.25 || got > 0.42 {
		t.Errorf("MoveFractionPerResize = %.3f, want within [0.25, 0.42]", got)
	}
}

func TestModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := New(16, uint64(seed))
		model := map[uint64]uint64{}
		for step := 0; step < 3000; step++ {
			k := uint64(rng.Intn(800))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Uint64() >> 1
				if err := tb.Insert(k, v); err != nil {
					return false
				}
				model[k] = v
			case 2:
				_, want := model[k]
				if tb.remove(k) != want {
					return false
				}
				delete(model, k)
			}
		}
		if tb.count != uint64(len(model)) {
			return false
		}
		for k, v := range model {
			got, ok := tb.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two size accepted")
		}
	}()
	New(10, 1)
}

func BenchmarkInsert(b *testing.B) {
	tb := New(1024, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Insert(uint64(i), uint64(i))
	}
}

func BenchmarkLookup(b *testing.B) {
	tb := New(1024, 7)
	for i := 0; i < 100000; i++ {
		tb.Insert(uint64(i), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(uint64(i % 100000))
	}
}
