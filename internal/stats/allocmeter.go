package stats

import "runtime/metrics"

// allocMetric is the cumulative heap-allocation count maintained by the
// runtime. It is monotonic and process-wide, which is exactly what a
// steady-state "allocs per simulated access" meter needs: after the
// pipeline's warm-up the delta should stay near zero no matter how many
// accesses replay.
const allocMetric = "/gc/heap/allocs:objects"

// AllocMeter measures heap-object allocation across a region of work via
// runtime/metrics. It backs the experiment CLI's allocs-per-access counter,
// the coarse online complement to the tier-2 testing.AllocsPerRun guards:
// the guards pin individual hot paths to zero allocations, the meter shows
// whether the deployed pipeline as a whole stays allocation-free.
//
// The counter is process-wide, so concurrent non-simulation work (JSON
// encoding, progress printing) is included; treat small per-access values
// as noise and large ones as a regression signal.
type AllocMeter struct {
	sample [1]metrics.Sample
	start  uint64
}

// NewAllocMeter returns a meter whose baseline is the current allocation
// count.
func NewAllocMeter() *AllocMeter {
	m := &AllocMeter{}
	m.sample[0].Name = allocMetric
	m.Reset()
	return m
}

// Reset moves the baseline to the current allocation count.
func (m *AllocMeter) Reset() { m.start = m.read() }

func (m *AllocMeter) read() uint64 {
	metrics.Read(m.sample[:])
	if m.sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return m.sample[0].Value.Uint64()
}

// Allocs returns the heap objects allocated process-wide since the last
// Reset.
func (m *AllocMeter) Allocs() uint64 { return m.read() - m.start }

// PerAccess returns Allocs divided by the given access count (0 when no
// accesses ran).
func (m *AllocMeter) PerAccess(accesses uint64) float64 {
	if accesses == 0 {
		return 0
	}
	return float64(m.Allocs()) / float64(accesses)
}
