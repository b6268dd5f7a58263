package sim

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/workload"
)

// residentRing is a 1024-reference ring over 32 pages, small enough to stay
// TLB-resident once faulted in: the steady state of a replayed trace.
func residentRing() []addr.VirtAddr {
	const resident = 32
	ring := make([]addr.VirtAddr, 1024)
	for i := range ring {
		ring[i] = workload.BaseVA + addr.VirtAddr(i%resident)*4*addr.KB
	}
	return ring
}

// warmMachine builds a machine of the given organization and faults the
// resident ring in.
func warmMachine(t *testing.T, org Org) (*Machine, []addr.VirtAddr) {
	t.Helper()
	m, err := NewMachine(Config{Org: org, Workload: workload.Spec{Name: "steady"},
		Seed: 1, MemBytes: 4 * addr.GB})
	if err != nil {
		t.Fatal(err)
	}
	ring := residentRing()
	var tally Tally
	if err := m.eng.Run(ring, &tally); err != nil {
		t.Fatal(err)
	}
	return m, ring
}

// TestRunBatchesAllocs bounds the per-call allocations of RunBatches over a
// TLB-resident set at 2, for every organization: the fill closure and the
// cursor it captures, both escaping into the source adapter. A per-access
// allocation would grow with the 8192 references each call replays.
func TestRunBatchesAllocs(t *testing.T) {
	const batch = 8192
	for _, org := range []Org{Radix, ECPT, MEHPT} {
		t.Run(org.String(), func(t *testing.T) {
			m, ring := warmMachine(t, org)
			var failed bool
			allocs := testing.AllocsPerRun(20, func() {
				pos := 0
				r := m.RunBatches(func(out []addr.VirtAddr) int {
					k := len(out)
					if k > batch-pos {
						k = batch - pos
					}
					p := pos % len(ring) // ring length is a multiple of every batch width
					copy(out[:k], ring[p:p+k])
					pos += k
					return k
				})
				failed = failed || r.Failed
			})
			if failed {
				t.Fatal("a resident replay failed")
			}
			if allocs > 2 {
				t.Errorf("RunBatches allocates %v times per call, want <= 2", allocs)
			}
		})
	}
}

// TestEngineRunAllocFree: the access loop itself allocates nothing once the
// working set is resident, for every organization.
func TestEngineRunAllocFree(t *testing.T) {
	for _, org := range []Org{Radix, ECPT, MEHPT} {
		t.Run(org.String(), func(t *testing.T) {
			m, ring := warmMachine(t, org)
			var tally Tally
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				if e := m.eng.Run(ring, &tally); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("Engine.Run allocates %v times per call, want 0", allocs)
			}
		})
	}
}
