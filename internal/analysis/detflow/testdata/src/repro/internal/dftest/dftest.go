// Package dftest is the detflow golden suite: nondeterministic values
// flowing into fingerprint, stats, and snapshot sinks — directly, through
// local helpers, and through cross-package summaries — next to seeded and
// sink-free uses that must stay silent.
package dftest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"time"
	"unsafe"

	"repro/internal/dfsrc"
	"repro/internal/stats"
)

// fingerprintOf mixes a value into a run fingerprint (name makes it a
// module fingerprint sink).
func fingerprintOf(v int64) uint64 { return uint64(v) * 2654435761 }

// seedFromClock feeds the wall clock straight into the fingerprint.
func seedFromClock() uint64 {
	seed := time.Now().UnixNano() // want `time\.Now reads the wall clock`
	return fingerprintOf(seed)    // want `wall clock time\.Now.*fingerprint computation`
}

// recordLatency launders the clock through another package first; the
// taint arrives via dfsrc.Stamp's exported summary.
func recordLatency() {
	v := dfsrc.Scale(dfsrc.Stamp(), 3)
	stats.Record(v) // want `wall clock time\.Now.*stats recording`
}

// mapFingerprint folds map iteration order into the fingerprint. (A
// non-commutative mix makes the order observable; even a sum is flagged —
// collect and sort instead.)
func mapFingerprint(m map[uint64]uint64) uint64 {
	var mix uint64
	for k := range m {
		mix = mix*31 + k
	}
	return fingerprintOf(int64(mix)) // want `map iteration order.*fingerprint computation`
}

// selectRace records whichever channel won the race.
func selectRace(a, b chan int64) {
	var got int64
	select {
	case v := <-a:
		got = v
	case v := <-b:
		got = v
	}
	stats.Record(got) // want `select case arrival order.*stats recording`
}

// ProbeState is a snapshot image; storing an address-derived value into
// it forks the checkpoint between runs (ASLR).
type ProbeState struct {
	Addr uint64
}

func captureProbe(p *int) ProbeState {
	var st ProbeState
	st.Addr = uint64(uintptr(unsafe.Pointer(p))) // want `pointer-to-uintptr conversion.*snapshot state field ProbeState\.Addr`
	return st
}

// snapshotClock gob-encodes a wall-clock reading.
func snapshotClock(buf *bytes.Buffer) error {
	enc := gob.NewEncoder(buf)
	t := time.Now()      // want `time\.Now reads the wall clock`
	return enc.Encode(t) // want `wall clock time\.Now.*gob snapshot encoding`
}

// seededDraw uses an explicitly seeded generator: deterministic, silent.
func seededDraw() int64 {
	rng := rand.New(rand.NewSource(42))
	return rng.Int63()
}

// logElapsed sends the clock to a log line. Output is an order sink
// only, so the flow is silent; ban mode still flags the clock read.
func logElapsed(start time.Time) {
	fmt.Println(time.Since(start)) // want `time\.Since reads the wall clock`
}

var (
	_ = seedFromClock
	_ = recordLatency
	_ = mapFingerprint
	_ = selectRace
	_ = captureProbe
	_ = snapshotClock
	_ = seededDraw
	_ = logElapsed
)
