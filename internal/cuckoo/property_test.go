package cuckoo

import (
	"math/rand"
	"testing"
)

// Property-based tests: random insert/remove interleavings (which drive
// upsizes, downsizes, and gradual-rehash migration internally) must
// preserve the table's core invariants at every step.
//
//   - Reachability: every live key is stored at one of its W hash paths —
//     the slot its per-way hash function selects, honouring the rehash
//     pointers — so a W-probe hardware walk always finds it.
//   - Occupancy: the element count never exceeds capacity, and matches a
//     model map exactly.

// checkInvariants verifies the table against the model. It inspects the
// internal ways directly (white-box): a key is "reachable" exactly when
// locate finds it, which is the W-probe walk the MMU performs.
func checkInvariants(t *testing.T, tab *Table, model map[uint64]uint64) {
	t.Helper()
	if tab.Len() != uint64(len(model)) {
		t.Fatalf("Len = %d, model has %d", tab.Len(), len(model))
	}
	if tab.Len() > tab.Capacity() {
		t.Fatalf("load exceeds capacity: %d > %d", tab.Len(), tab.Capacity())
	}
	for key, val := range model {
		found := false
		for i := 0; i < tab.cfg.Ways; i++ {
			w, idx := tab.locate(i, key)
			if w.slots[idx].Key == key {
				if w.slots[idx].Val != val {
					t.Fatalf("key %#x has value %d, want %d", key, w.slots[idx].Val, val)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("key %#x unreachable via its %d hash paths (resizing=%v)",
				key, tab.cfg.Ways, tab.next != nil)
		}
	}
	// No phantom occupants: total live slots must equal the model size.
	live := uint64(0)
	tab.Range(func(key, val uint64) bool {
		if v, ok := model[key]; !ok || v != val {
			t.Fatalf("phantom or stale entry %#x=%d", key, val)
		}
		live++
		return true
	})
	if live != uint64(len(model)) {
		t.Fatalf("Range visited %d entries, model has %d", live, len(model))
	}
}

// TestPropertyInsertRemoveResize runs randomized operation sequences at
// several seeds and mix ratios, checking invariants periodically and after
// forced resize drains.
func TestPropertyInsertRemoveResize(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := New(Config{
			Ways:           3,
			InitialEntries: 64,
			UpsizeAt:       0.6,
			DownsizeAt:     0.2,
			HashSeed:       uint64(seed)*977 + 13,
			Rand:           rand.New(rand.NewSource(seed + 100)),
		})
		model := map[uint64]uint64{}
		keys := make([]uint64, 0, 4096)
		// deleteBias varies by seed so some sequences grow monotonically
		// (upsizes only) and others churn (up- and downsizes interleaved
		// with in-flight rehashes).
		deleteBias := int(seed%3) + 2 // delete 1-in-N
		for op := 0; op < 30_000; op++ {
			switch {
			case len(keys) > 0 && rng.Intn(deleteBias) == 0:
				i := rng.Intn(len(keys))
				key := keys[i]
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
				if !tab.Delete(key) {
					t.Fatalf("seed %d op %d: live key %#x not deletable", seed, op, key)
				}
				delete(model, key)
			default:
				key := rng.Uint64() & 0xFFFFF // small space → genuine collisions
				val := rng.Uint64()
				if _, dup := model[key]; !dup {
					keys = append(keys, key)
				}
				if _, err := tab.Insert(key, val); err != nil {
					t.Fatalf("seed %d op %d: insert: %v", seed, op, err)
				}
				model[key] = val
			}
			if op%5000 == 4999 {
				checkInvariants(t, tab, model)
			}
			if op%7000 == 6999 {
				tab.DrainResize() // force the migrated/live boundary to collapse
				checkInvariants(t, tab, model)
			}
		}
		checkInvariants(t, tab, model)
		tab.DrainResize()
		checkInvariants(t, tab, model)
	}
}

// TestPropertyLoadFactorBounded: with a per-way cap (an AllocWays hook
// refusing larger ways) the table must refuse cleanly (ErrTableFull)
// rather than overfill; occupancy never exceeds capacity at any point.
func TestPropertyLoadFactorBounded(t *testing.T) {
	tab := New(Config{
		Ways:           3,
		InitialEntries: 16,
		HashSeed:       7,
		Rand:           rand.New(rand.NewSource(7)),
		Hooks:          Hooks{AllocWays: capWays(64)},
	})
	rng := rand.New(rand.NewSource(8))
	inserted := uint64(0)
	for i := 0; i < 10_000; i++ {
		_, err := tab.Insert(rng.Uint64(), 1)
		if err != nil {
			break
		}
		inserted++
		if tab.Len() > tab.Capacity() {
			t.Fatalf("after %d inserts: occupancy %d exceeds capacity %d",
				inserted, tab.Len(), tab.Capacity())
		}
	}
	if cap := uint64(3 * 64); tab.Len() > cap {
		t.Fatalf("capped table holds %d > %d entries", tab.Len(), cap)
	}
	if inserted < 16 {
		t.Fatalf("only %d inserts succeeded before the cap", inserted)
	}
}
