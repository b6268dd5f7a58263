// Package directory applies the paper's hashing techniques to the second
// use case Section VIII names: cache-coherence directories. SecDir-style
// designs build per-core private directories on cuckoo hashing; the paper
// notes its in-place and per-way resizing "can be directly applied", with
// the directory growing as more distinct lines become shared and shrinking
// as they die.
//
// The directory maps physical line addresses to sharer state (a presence
// bitmap plus an owner for modified lines), backed by the elastic cuckoo
// table — so it inherits gradual resizing and bounded-probe lookups.
package directory

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/cuckoo"
)

// MaxCores bounds the sharer bitmap to the value word's low bits.
const MaxCores = 48

// State is one line's directory entry.
type State struct {
	Sharers  uint64 // presence bitmap, bit c = core c holds the line
	Owner    int    // owning core when Modified; -1 otherwise
	Modified bool
}

// pack encodes State into a cuckoo value word: sharers in bits [0,48),
// owner in bits [48,56), modified in bit 56.
func pack(s State) uint64 {
	v := s.Sharers & ((1 << MaxCores) - 1)
	owner := s.Owner
	if owner < 0 {
		owner = 0xFF
	}
	v |= uint64(owner&0xFF) << MaxCores
	if s.Modified {
		v |= 1 << 56
	}
	return v
}

func unpack(v uint64) State {
	s := State{
		Sharers:  v & ((1 << MaxCores) - 1),
		Modified: v&(1<<56) != 0,
	}
	owner := int(v>>MaxCores) & 0xFF
	if owner == 0xFF {
		s.Owner = -1
	} else {
		s.Owner = owner
	}
	return s
}

// Directory is an elastic cuckoo coherence directory, owned by one
// goroutine like every simulated structure (a real design banks it).
type Directory struct {
	t     *cuckoo.Table
	cores int
	stats Stats
}

// Stats counts coherence traffic.
type Stats struct {
	Reads, Writes, Evictions uint64
	Invalidations            uint64 // sharer invalidations sent on writes
}

// New creates a directory for the given core count.
func New(cores int, seed uint64) *Directory {
	if cores <= 0 || cores > MaxCores {
		panic(fmt.Sprintf("directory: cores %d out of (0,%d]", cores, MaxCores))
	}
	return &Directory{
		t: cuckoo.New(cuckoo.Config{
			Ways:           3,
			InitialEntries: 256,
			UpsizeAt:       0.6,
			DownsizeAt:     0.2,
			MaxKicks:       32,
			HashSeed:       seed,
			Rand:           rand.New(rand.NewSource(int64(seed) + 1)),
		}),
		cores: cores,
	}
}

// lineKey is the 64B-line address tag.
func lineKey(pa addr.PhysAddr) uint64 { return uint64(pa) >> 6 }

// Lookup returns the directory state of the line containing pa.
func (d *Directory) Lookup(pa addr.PhysAddr) (State, bool) {
	v, ok := d.t.Lookup(lineKey(pa))
	if !ok {
		return State{}, false
	}
	return unpack(v), true
}

// Read records core acquiring the line in shared state. A modified line is
// downgraded (the owner becomes a sharer).
func (d *Directory) Read(pa addr.PhysAddr, core int) error {
	d.check(core)
	d.stats.Reads++
	s, ok := d.Lookup(pa)
	if !ok {
		s = State{Owner: -1}
	}
	if s.Modified {
		s.Modified = false
		s.Owner = -1
	}
	s.Sharers |= 1 << uint(core)
	_, err := d.t.Insert(lineKey(pa), pack(s))
	return err
}

// Write records core acquiring the line exclusively, invalidating other
// sharers and returning how many invalidations were sent.
func (d *Directory) Write(pa addr.PhysAddr, core int) (int, error) {
	d.check(core)
	d.stats.Writes++
	s, _ := d.Lookup(pa)
	inv := 0
	for m := s.Sharers &^ (1 << uint(core)); m != 0; m &= m - 1 {
		inv++
	}
	d.stats.Invalidations += uint64(inv)
	ns := State{Sharers: 1 << uint(core), Owner: core, Modified: true}
	_, err := d.t.Insert(lineKey(pa), pack(ns))
	return inv, err
}

// Evict records core dropping the line; when the last sharer leaves, the
// entry is deleted and the directory may downsize.
func (d *Directory) Evict(pa addr.PhysAddr, core int) bool {
	d.check(core)
	d.stats.Evictions++
	s, ok := d.Lookup(pa)
	if !ok || s.Sharers&(1<<uint(core)) == 0 {
		return false
	}
	s.Sharers &^= 1 << uint(core)
	if s.Owner == core {
		s.Owner = -1
		s.Modified = false
	}
	if s.Sharers == 0 {
		d.t.Delete(lineKey(pa))
		return true
	}
	//mehpt:allow errwrap -- shrinking update of an existing key cannot grow the table
	d.t.Insert(lineKey(pa), pack(s))
	return true
}

// Lines returns the number of tracked lines.
func (d *Directory) Lines() uint64 { return d.t.Len() }

// EntriesPerWay exposes the elastic sizing, mirroring the HPT metrics.
func (d *Directory) EntriesPerWay() uint64 { return d.t.EntriesPerWay() }

// TableStats exposes the underlying cuckoo behaviour (upsizes, kicks).
func (d *Directory) TableStats() cuckoo.Stats { return d.t.Stats() }

// Stats returns coherence counters.
func (d *Directory) Stats() Stats { return d.stats }

func (d *Directory) check(core int) {
	if core < 0 || core >= d.cores {
		panic(fmt.Sprintf("directory: core %d out of range [0,%d)", core, d.cores))
	}
}
