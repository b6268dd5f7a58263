package cuckoo

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func newTestTable(t *testing.T, opts ...func(*Config)) *Table {
	t.Helper()
	cfg := Config{
		Ways:           3,
		InitialEntries: 128,
		UpsizeAt:       0.6,
		DownsizeAt:     0.2,
		MaxKicks:       32,
		HashSeed:       42,
		Rand:           rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg)
}

func TestInsertLookup(t *testing.T) {
	tb := newTestTable(t)
	for k := uint64(0); k < 100; k++ {
		if _, err := tb.Insert(k, k*10); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		v, ok := tb.Lookup(k)
		if !ok || v != k*10 {
			t.Fatalf("Lookup(%d) = %d,%v; want %d,true", k, v, ok, k*10)
		}
	}
	if _, ok := tb.Lookup(12345); ok {
		t.Error("Lookup of absent key succeeded")
	}
	if tb.Len() != 100 {
		t.Errorf("Len = %d, want 100", tb.Len())
	}
}

func TestUpsert(t *testing.T) {
	tb := newTestTable(t)
	tb.Insert(7, 1)
	tb.Insert(7, 2)
	if v, _ := tb.Lookup(7); v != 2 {
		t.Errorf("after upsert, Lookup = %d, want 2", v)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1 (upsert must not duplicate)", tb.Len())
	}
}

func TestDelete(t *testing.T) {
	tb := newTestTable(t)
	tb.Insert(1, 100)
	tb.Insert(2, 200)
	if !tb.Delete(1) {
		t.Fatal("Delete(1) = false")
	}
	if tb.Delete(1) {
		t.Error("second Delete(1) = true")
	}
	if _, ok := tb.Lookup(1); ok {
		t.Error("deleted key still present")
	}
	if v, ok := tb.Lookup(2); !ok || v != 200 {
		t.Error("unrelated key lost by delete")
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
}

// TestGrowthUnderLoad drives the table far past its initial capacity and
// verifies every element survives the gradual resizes.
func TestGrowthUnderLoad(t *testing.T) {
	tb := newTestTable(t)
	const n = 20000
	for k := uint64(0); k < n; k++ {
		if _, err := tb.Insert(k, k^0xABCD); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tb.Lookup(k)
		if !ok || v != k^0xABCD {
			t.Fatalf("Lookup(%d) = %d,%v after growth", k, v, ok)
		}
	}
	if tb.Stats().Upsizes == 0 {
		t.Error("expected at least one upsize")
	}
	if tb.EntriesPerWay() < n/3 {
		t.Errorf("per-way size %d too small for %d elements", tb.EntriesPerWay(), n)
	}
}

// TestOccupancyNeverExceedsThresholdSteadyState: after all gradual work
// drains, occupancy must be at most the upsize threshold (unless capped).
func TestOccupancyBounded(t *testing.T) {
	tb := newTestTable(t)
	for k := uint64(0); k < 5000; k++ {
		tb.Insert(k, k)
	}
	tb.DrainResize()
	occ := float64(tb.Len()) / float64(tb.Capacity())
	if occ > 0.6+1e-9 {
		t.Errorf("steady-state occupancy %v > 0.6", occ)
	}
}

func TestShrinkOnDelete(t *testing.T) {
	tb := newTestTable(t)
	const n = 10000
	for k := uint64(0); k < n; k++ {
		tb.Insert(k, k)
	}
	tb.DrainResize()
	big := tb.EntriesPerWay()
	for k := uint64(0); k < n; k++ {
		tb.Delete(k)
	}
	tb.DrainResize()
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tb.Len())
	}
	if tb.EntriesPerWay() >= big {
		t.Errorf("table did not shrink: %d -> %d", big, tb.EntriesPerWay())
	}
	if tb.Stats().Downsizes == 0 {
		t.Error("expected downsizes")
	}
}

// TestLookupDuringResize inserts enough to keep a resize in flight and
// checks lookups mid-migration.
func TestLookupDuringResize(t *testing.T) {
	tb := newTestTable(t, func(c *Config) { c.RehashBatch = 1 })
	inserted := make(map[uint64]uint64)
	for k := uint64(0); k < 3000; k++ {
		tb.Insert(k, k*3)
		inserted[k] = k * 3
		if k%97 == 0 { // spot-check everything occasionally, mid-resize
			for kk, vv := range inserted {
				if v, ok := tb.Lookup(kk); !ok || v != vv {
					t.Fatalf("mid-resize Lookup(%d) = %d,%v want %d (resizing=%v)",
						kk, v, ok, vv, tb.Resizing())
				}
			}
		}
	}
}

func TestDeleteDuringResize(t *testing.T) {
	tb := newTestTable(t, func(c *Config) { c.RehashBatch = 1 })
	for k := uint64(0); k < 2000; k++ {
		tb.Insert(k, k)
	}
	if !tb.Resizing() {
		// Force a resize window: insert until one starts.
		for k := uint64(2000); !tb.Resizing() && k < 100000; k++ {
			tb.Insert(k, k)
		}
	}
	if !tb.Resizing() {
		t.Skip("could not catch table mid-resize")
	}
	// Delete a batch mid-resize.
	for k := uint64(0); k < 500; k++ {
		if !tb.Delete(k) {
			t.Fatalf("Delete(%d) mid-resize failed", k)
		}
	}
	for k := uint64(0); k < 500; k++ {
		if _, ok := tb.Lookup(k); ok {
			t.Fatalf("key %d still present after mid-resize delete", k)
		}
	}
}

func TestRangeVisitsAll(t *testing.T) {
	tb := newTestTable(t)
	want := make(map[uint64]uint64)
	for k := uint64(0); k < 1500; k++ {
		tb.Insert(k, k+7)
		want[k] = k + 7
	}
	got := make(map[uint64]uint64)
	tb.Range(func(k, v uint64) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("Range visited key %d twice", k)
		}
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range got[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tb := newTestTable(t)
	for k := uint64(0); k < 100; k++ {
		tb.Insert(k, k)
	}
	n := 0
	tb.Range(func(k, v uint64) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("Range visited %d, want 10", n)
	}
}

func TestAllocHookFailureAbortsUpsize(t *testing.T) {
	fail := false
	allocErr := errors.New("no contiguous memory")
	var tb *Table
	tb = newTestTable(t, func(c *Config) {
		c.Hooks.AllocWays = func(entries uint64) error {
			if fail && entries > c.InitialEntries {
				return allocErr
			}
			return nil
		}
	})
	fail = true
	// Fill past the threshold; upsizes fail, but inserts must keep working
	// until genuinely full.
	overflowed := false
	for k := uint64(0); k < 1000; k++ {
		if _, err := tb.Insert(k, k); err != nil {
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Fatal("table never filled despite failed upsizes")
	}
	if tb.Stats().FailedUps == 0 {
		t.Error("no failed upsizes recorded")
	}
	if tb.EntriesPerWay() != 128 {
		t.Errorf("table grew despite allocation failure: %d", tb.EntriesPerWay())
	}
}

func TestFreeHookCalled(t *testing.T) {
	var freed []uint64
	tb := newTestTable(t, func(c *Config) {
		c.Hooks.FreeWays = func(entries uint64) { freed = append(freed, entries) }
	})
	for k := uint64(0); k < 2000; k++ {
		tb.Insert(k, k)
	}
	tb.DrainResize()
	if len(freed) == 0 {
		t.Error("FreeWays never called despite upsizes")
	}
	if len(freed) > 0 && freed[0] != 128 {
		t.Errorf("first freed way size %d, want 128", freed[0])
	}
}

func TestMaxEntriesCap(t *testing.T) {
	tb := newTestTable(t, func(c *Config) { c.MaxEntries = 256 })
	var lastErr error
	for k := uint64(0); k < 5000; k++ {
		if _, lastErr = tb.Insert(k, k); lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("capped table accepted unbounded inserts")
	}
	if !errors.Is(lastErr, ErrTableFull) {
		t.Errorf("error = %v, want ErrTableFull", lastErr)
	}
	if tb.EntriesPerWay() > 256 {
		t.Errorf("per-way size %d exceeds cap", tb.EntriesPerWay())
	}
}

func TestReinsertionsObserved(t *testing.T) {
	total, calls := 0, 0
	tb := newTestTable(t, func(c *Config) {
		c.Hooks.OnReinsertions = func(n int) { total += n; calls++ }
	})
	for k := uint64(0); k < 5000; k++ {
		tb.Insert(k, k)
	}
	if calls == 0 {
		t.Fatal("OnReinsertions never called")
	}
	mean := float64(total) / float64(calls)
	// The paper measures ≈0.7 re-insertions per insert/rehash at 0.6 max
	// occupancy; anything wildly above 2 indicates broken hashing.
	if mean > 2 {
		t.Errorf("mean re-insertions %.2f implausibly high", mean)
	}
}

func TestMovesCounted(t *testing.T) {
	tb := newTestTable(t)
	for k := uint64(0); k < 2000; k++ {
		tb.Insert(k, k)
	}
	tb.DrainResize()
	if tb.Stats().Moves == 0 {
		t.Error("no migration moves recorded despite resizes")
	}
}

// Property: a random interleaving of inserts/deletes behaves exactly like a
// map.
func TestModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := New(Config{
			Ways: 3, InitialEntries: 64, MaxKicks: 32,
			HashSeed: uint64(seed), Rand: rand.New(rand.NewSource(seed + 1)),
		})
		model := make(map[uint64]uint64)
		for step := 0; step < 3000; step++ {
			k := uint64(rng.Intn(500))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Uint64() >> 1
				if _, err := tb.Insert(k, v); err != nil {
					return false
				}
				model[k] = v
			case 2:
				want := false
				if _, ok := model[k]; ok {
					want = true
					delete(model, k)
				}
				if tb.Delete(k) != want {
					return false
				}
			}
		}
		if tb.Len() != uint64(len(model)) {
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
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"one way":      {Ways: 1, InitialEntries: 64},
		"zero entries": {Ways: 3, InitialEntries: 0},
		"non-pow2":     {Ways: 3, InitialEntries: 100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func BenchmarkInsert(b *testing.B) {
	tb := New(Config{Ways: 3, InitialEntries: 1024, MaxKicks: 32, HashSeed: 9,
		Rand: rand.New(rand.NewSource(2))})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Insert(uint64(i), uint64(i))
	}
}

func BenchmarkLookup(b *testing.B) {
	tb := New(Config{Ways: 3, InitialEntries: 1024, MaxKicks: 32, HashSeed: 9,
		Rand: rand.New(rand.NewSource(2))})
	for i := 0; i < 100000; i++ {
		tb.Insert(uint64(i), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(uint64(i % 100000))
	}
}

// TestRestoreTableRejectsBadGeometry: an intact mid-resize state restores
// and round-trips; state whose way count, slot counts, resize target or
// rehash pointers the table would index out of range with is rejected.
func TestRestoreTableRejectsBadGeometry(t *testing.T) {
	tb := newTestTable(t)
	for k := uint64(0); k < 240; k++ { // past the 0.6 upsize threshold
		if _, err := tb.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if !tb.Resizing() {
		t.Fatal("no resize in flight; the mutations need one")
	}
	cfg := tb.cfg
	cfg.Rand = rand.New(rand.NewSource(1))
	r, err := RestoreTable(cfg, tb.State())
	if err != nil {
		t.Fatalf("intact state: %v", err)
	}
	if !reflect.DeepEqual(r.State(), tb.State()) {
		t.Fatal("intact state does not round-trip")
	}
	for name, mut := range map[string]func(*TableState){
		"two of three ways":  func(st *TableState) { st.Cur = st.Cur[:2] },
		"no ways":            func(st *TableState) { st.Cur = nil },
		"way one slot short": func(st *TableState) { st.Cur[1].Slots = st.Cur[1].Slots[:len(st.Cur[1].Slots)-1] },
		"slots not 2^": func(st *TableState) {
			for i := range st.Cur {
				st.Cur[i].Slots = st.Cur[i].Slots[:96]
			}
		},
		"next ways":           func(st *TableState) { st.Next = st.Next[:1] },
		"next way short":      func(st *TableState) { st.Next[0].Slots = st.Next[0].Slots[:1] },
		"rehash ptrs emptied": func(st *TableState) { st.RehashPtr = nil },
		"rehash ptr past way": func(st *TableState) { st.RehashPtr[2] = uint64(len(st.Cur[2].Slots)) + 1 },
	} {
		st := tb.State()
		mut(&st)
		if _, err := RestoreTable(cfg, st); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
}
