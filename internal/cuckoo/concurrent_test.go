package cuckoo

// The shared-segment battery: the multi-tenant machine's shared segment is
// one Table that many tenants look up and the end-of-round remaps upsert.
// These tests drive a Table through seeded interleavings of readers and
// writers and check what the segment relies on: every published value
// stays reachable, upserts replace in place, gradual resizes lose nothing,
// and every lookup is counted exactly once.

import (
	"math/rand"
	"testing"
)

func newConcurrent() *Table {
	return New(Config{
		Ways:           3,
		InitialEntries: 256,
		MaxKicks:       32,
		HashSeed:       17,
		Rand:           rand.New(rand.NewSource(1)),
	})
}

func TestConcurrentBasics(t *testing.T) {
	c := newConcurrent()
	if _, err := c.Insert(1, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Lookup(1); !ok || v != 100 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
	if !c.Delete(1) {
		t.Fatal("Delete failed")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestConcurrentReadersAndWriters interleaves writers (insert, and delete
// every third key) with readers in a seeded order. A reader may miss a key
// not yet written or already deleted, but never sees a wrong value.
func TestConcurrentReadersAndWriters(t *testing.T) {
	c := newConcurrent()
	const (
		writers = 4
		readers = 4
		perG    = 5000
	)
	next := make([]uint64, writers) // each writer's next key offset
	readerRNG := make([]*rand.Rand, readers)
	for r := range readerRNG {
		readerRNG[r] = rand.New(rand.NewSource(int64(r)))
	}
	sched := rand.New(rand.NewSource(3))
	for done := 0; done < writers; {
		if g := sched.Intn(writers + readers); g >= writers {
			k := uint64(readerRNG[g-writers].Intn(writers * perG))
			if v, ok := c.Lookup(k); ok && v != k*2 {
				t.Fatalf("Lookup(%d) = %d, want %d", k, v, k*2)
			}
		} else if i := next[g]; i < perG {
			k := uint64(g)*perG + i
			if _, err := c.Insert(k, k*2); err != nil {
				t.Fatalf("Insert(%d): %v", k, err)
			}
			if i%3 == 0 {
				c.Delete(k)
			}
			if next[g]++; next[g] == perG {
				done++
			}
		}
	}
	want := map[uint64]uint64{}
	for w := uint64(0); w < writers; w++ {
		for i := uint64(0); i < perG; i++ {
			k := w*perG + i
			if i%3 != 0 {
				want[k] = k * 2
			}
		}
	}
	for k, v := range want {
		got, ok := c.Lookup(k)
		if !ok || got != v {
			t.Fatalf("post-interleaving Lookup(%d) = %d,%v want %d", k, got, ok, v)
		}
	}
	if c.Len() != uint64(len(want)) {
		t.Errorf("Len = %d, want %d", c.Len(), len(want))
	}
}

func TestConcurrentRange(t *testing.T) {
	c := newConcurrent()
	for k := uint64(0); k < 500; k++ {
		c.Insert(k, k)
	}
	n := 0
	c.Range(func(k, v uint64) bool { n++; return true })
	if n != 500 {
		t.Errorf("Range visited %d", n)
	}
}

// TestConcurrentStatsCountReadPath pins that every lookup is counted
// exactly once, in steady state and inside a resize window alike: Lookups
// grows by one per call, and ProbeSlots by the ways probed up to the hit
// (all of them on a miss). The shared segment's SharedLookups fingerprint
// field is this count.
func TestConcurrentStatsCountReadPath(t *testing.T) {
	c := newConcurrent()
	probes := func(k uint64) uint64 {
		if way, ok := c.WayOf(k); ok {
			return uint64(way) + 1
		}
		return uint64(c.cfg.Ways)
	}
	resizing := 0
	for k := uint64(0); k < 2000; k++ { // enough inserts to drive resizes
		if _, err := c.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		if c.next != nil {
			resizing++
		}
		// Look up a present key and an absent one after every insert.
		for _, key := range []uint64{k / 2, k + 1_000_000} {
			before := c.Stats()
			want := probes(key)
			c.Lookup(key)
			after := c.Stats()
			if got := after.Lookups - before.Lookups; got != 1 {
				t.Fatalf("Lookup(%d) after %d inserts counted %d lookups, want 1", key, k+1, got)
			}
			if got := after.ProbeSlots - before.ProbeSlots; got != want {
				t.Fatalf("Lookup(%d) after %d inserts counted %d probe slots, want %d", key, k+1, got, want)
			}
		}
	}
	if resizing == 0 {
		t.Error("2000 inserts never left a resize in flight; the resize-window path is untested")
	}
}

// TestConcurrentUpsertVisibleToReaders: Insert on an existing key replaces
// the value in place (the shared-region remap path), and readers
// interleaved with the remaps only ever observe one of the published
// values.
func TestConcurrentUpsertVisibleToReaders(t *testing.T) {
	c := newConcurrent()
	const keys = 128
	for k := uint64(0); k < keys; k++ {
		c.Insert(k, 1)
	}
	rng := rand.New(rand.NewSource(5))
	for k := uint64(0); k < keys; k++ {
		for r := 0; r < 4; r++ {
			key := uint64(rng.Intn(keys))
			v, ok := c.Lookup(key)
			if !ok {
				t.Fatalf("key %d vanished", key)
			}
			want := uint64(1)
			if key < k {
				want = 2
			}
			if v != want {
				t.Fatalf("key %d = %d before remap %d, want %d", key, v, k, want)
			}
		}
		if _, err := c.Insert(k, 2); err != nil { // remap: upsert in place
			t.Fatal(err)
		}
	}
	if c.Len() != keys {
		t.Errorf("Len = %d after upserts, want %d (no duplicates)", c.Len(), keys)
	}
	for k := uint64(0); k < keys; k++ {
		if v, _ := c.Lookup(k); v != 2 {
			t.Errorf("key %d = %d after remap, want 2", k, v)
		}
	}
}

// TestConcurrentResizeSerialized drives the table through growth with
// lookups interleaved between inserts, then verifies the gradual resize
// left every key reachable — the growth contract the multi-tenant shared
// region depends on.
func TestConcurrentResizeSerialized(t *testing.T) {
	c := newConcurrent()
	rng := rand.New(rand.NewSource(9))
	sawResize := false
	for k := uint64(0); k < 20000; k++ {
		if _, err := c.Insert(k, k+7); err != nil {
			t.Fatal(err)
		}
		if !sawResize && c.next != nil {
			sawResize = true
		}
		for r := 0; r < 4; r++ {
			key := uint64(rng.Intn(20000))
			v, ok := c.Lookup(key)
			if ok != (key <= k) || ok && v != key+7 {
				t.Fatalf("Lookup(%d) after inserting 0..%d = %d,%v", key, k, v, ok)
			}
		}
	}
	if !sawResize {
		t.Error("20000 inserts never left a resize observable; growth path untested")
	}
	for k := uint64(0); k < 20000; k++ {
		if v, ok := c.Lookup(k); !ok || v != k+7 {
			t.Fatalf("post-growth Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}
