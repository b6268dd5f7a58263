package cuckoo

import (
	"sync"
	"sync/atomic"
)

// ConcurrentTable wraps Table with a readers-writer lock, giving the
// concurrency model the multi-tenant machine's shared regions need: lookups
// proceed in parallel; inserts, deletes, and the gradual resize steps they
// drive are serialized. This mirrors how shared page tables are used (reads
// from many walkers, writes under the OS's page-table lock) and is the
// load-bearing structure behind tenant.Machine's shared segment — every
// simulated core translates shared addresses through one of these, and
// remaps from the shootdown path serialize against those readers.
//
// Lookup takes the write path when a resize is in flight, because resizing
// lookups consult rehash pointers that inserts move; steady-state lookups
// (the overwhelming majority under the paper's thresholds) stay read-only.
//
// Statistics: the read-only lookup path cannot touch Table.stats (it runs
// under RLock, concurrently with other readers), so its activity is counted
// in dedicated atomics and merged into the Stats snapshot. The seed version
// of this file silently dropped those lookups — steady-state reads were
// invisible in Stats() while resize-window reads were counted, an
// inconsistency the scheduler-era unit tests pin down.
type ConcurrentTable struct {
	mu sync.RWMutex
	t  *Table //mehpt:guardedby mu

	// Read-path counters, maintained outside the Table's own stats because
	// the read path holds only RLock.
	roLookups    atomic.Uint64
	roProbeSlots atomic.Uint64
}

// NewConcurrent creates a thread-safe elastic cuckoo table.
func NewConcurrent(cfg Config) *ConcurrentTable {
	return &ConcurrentTable{t: New(cfg)}
}

// Lookup returns the value stored for key.
//
//mehpt:hotpath
func (c *ConcurrentTable) Lookup(key uint64) (uint64, bool) {
	c.mu.RLock()
	if c.t.Resizing() {
		// Upgrade: resizing lookups race with rehash-pointer movement.
		c.mu.RUnlock()
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.t.Lookup(key)
	}
	defer c.mu.RUnlock()
	val, probed, ok := c.t.lookupReadOnly(key)
	c.roLookups.Add(1)
	c.roProbeSlots.Add(uint64(probed))
	return val, ok
}

// Insert stores key→val, replacing any existing value for key.
func (c *ConcurrentTable) Insert(key, val uint64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Insert(key, val)
}

// Delete removes key.
func (c *ConcurrentTable) Delete(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Delete(key)
}

// Len returns the element count.
func (c *ConcurrentTable) Len() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Len()
}

// Resizing reports whether a gradual resize is in flight.
func (c *ConcurrentTable) Resizing() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Resizing()
}

// Stats returns a snapshot of the operation counters with the read-path
// lookup activity folded in, so Lookups/ProbeSlots cover both the RLock
// fast path and the resize-window upgraded path.
func (c *ConcurrentTable) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.t.stats
	s.Lookups += c.roLookups.Load()
	s.ProbeSlots += c.roProbeSlots.Load()
	return s
}

// Range calls f for every element while holding the read lock.
func (c *ConcurrentTable) Range(f func(key, val uint64) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.t.Range(f)
}

// lookupReadOnly is Lookup without stats mutation, safe under RLock when no
// resize is in flight. It reports the slots probed so the caller can account
// them.
//
//mehpt:hotpath
func (t *Table) lookupReadOnly(key uint64) (val uint64, probed int, ok bool) {
	for i := 0; i < t.cfg.Ways; i++ {
		w := t.cur[i]
		idx := w.fn.Index(key, w.size())
		probed++
		if w.slots[idx].Key == key {
			return w.slots[idx].Val, probed, true
		}
	}
	return 0, probed, false
}
