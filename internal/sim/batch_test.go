package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
)

// batchCfg is a small machine for the loop tests: unfragmented so
// construction is fast, big enough that every access class (fault, walk, TLB
// hit at both levels, DRAM data miss) occurs.
func batchCfg(org Org, inject string) Config {
	return Config{
		Org:      org,
		Seed:     13,
		MemBytes: 256 * addr.MB,
		Inject:   inject,
	}
}

// batchTestVAs is a seeded access stream over a working set wider than the
// TLBs: a hot region for steady-state hits plus a broad region that keeps
// faulting new pages in.
func batchTestVAs(seed int64, n int) []addr.VirtAddr {
	rng := rand.New(rand.NewSource(seed))
	base := addr.VirtAddr(0x4000_0000)
	vas := make([]addr.VirtAddr, n)
	for i := range vas {
		if rng.Intn(4) == 0 {
			vas[i] = base + addr.VirtAddr(rng.Intn(8192))*4096
		} else {
			vas[i] = base + addr.VirtAddr(rng.Intn(128))*4096
		}
	}
	return vas
}

// batchedRun replays vas through the batched loop of an oracleMachine,
// filling at most fill addresses per NextBatch call so partial and width-1
// batches are exercised. A fill of 1 is the scalar interleave: every
// reference translates, faults and accesses before the next one starts.
func batchedRun(t *testing.T, cfg Config, vas []addr.VirtAddr, fill int) Result {
	t.Helper()
	pos := 0
	return oracleMachine(t, cfg).RunBatches(func(out []addr.VirtAddr) int {
		k := fill
		if k > len(out) {
			k = len(out)
		}
		if k > len(vas)-pos {
			k = len(vas) - pos
		}
		copy(out[:k], vas[pos:pos+k])
		pos += k
		return k
	})
}

// assertSameResult compares two Results field-for-field, ignoring only the
// organization-specific inspection handles (distinct machines necessarily
// hold distinct page-table pointers).
func assertSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	got.MEHPT, got.ECPT = nil, nil
	want.MEHPT, want.ECPT = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: run diverges from the fill-1 run:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestBatchedLoopMatchesScalar is the end-to-end bit-identity property the
// batched pipeline claims: for every organization and for batch fills of a
// non-multiple of the width and the full width, RunBatches must produce
// exactly the Result (cycles, stats, page-table metrics) of the fill-1
// run, the scalar interleave. Every run's physical addresses are the flat
// oracle's (oracleMachine).
func TestBatchedLoopMatchesScalar(t *testing.T) {
	vas := batchTestVAs(29, 6000)
	for _, org := range []Org{Radix, ECPT, MEHPT} {
		cfg := batchCfg(org, "")
		want := batchedRun(t, cfg, vas, 1)
		if want.Failed {
			t.Fatalf("%v: fill-1 run failed: %s", org, want.FailReason)
		}
		if want.MMU.Walks == 0 || want.OS.Faults == 0 {
			t.Fatalf("%v: stream too tame (walks=%d faults=%d)", org, want.MMU.Walks, want.OS.Faults)
		}
		for _, fill := range []int{5, 31, 64} {
			got := batchedRun(t, cfg, vas, fill)
			assertSameResult(t, org.String(), got, want)
		}
	}
}

// TestBatchedLoopTHP repeats the comparison on THP machines, where the OS
// maps a first touch in an eligible 2MB region with one 2MB page and
// elsewhere with a 4KB page: every run's physical addresses are the
// oracle's at the size the OS mapped, and no reference fails.
func TestBatchedLoopTHP(t *testing.T) {
	vas := batchTestVAs(37, 6000)
	for _, org := range []Org{Radix, ECPT, MEHPT} {
		cfg := batchCfg(org, "")
		cfg.THP = true
		cfg.Workload.THPFraction = 0.5
		want := batchedRun(t, cfg, vas, 1)
		if want.Failed {
			t.Fatalf("%v: fill-1 run failed: %s", org, want.FailReason)
		}
		if huge := want.OS.HugeFaults; huge == 0 || huge == want.OS.Faults {
			t.Fatalf("%v: %d of %d faults mapped 2MB pages, want some of each size", org, huge, want.OS.Faults)
		}
		for _, fill := range []int{31, 64} {
			got := batchedRun(t, cfg, vas, fill)
			assertSameResult(t, org.String(), got, want)
		}
	}
}

// TestBatchedLoopMatchesScalarUnderInjection repeats the comparison with a
// fault-injection policy that kills the run mid-stream: every fill must
// fail at the same access, with the same accumulated state, as the fill-1
// run.
func TestBatchedLoopMatchesScalarUnderInjection(t *testing.T) {
	vas := batchTestVAs(31, 6000)
	for _, org := range []Org{Radix, ECPT, MEHPT} {
		cfg := batchCfg(org, "nth=200")
		want := batchedRun(t, cfg, vas, 1)
		if !want.Failed {
			t.Fatalf("%v: injection did not kill the fill-1 run", org)
		}
		for _, fill := range []int{5, 31, 64} {
			got := batchedRun(t, cfg, vas, fill)
			assertSameResult(t, org.String(), got, want)
		}
	}
}

// TestRunAddressesMatchesRunBatches: the push adapter buffers its emits
// into the batched loop, so a stream through RunAddresses must equal the
// fill-1 run, including a run that injection kills mid-stream, after which
// emits are dropped.
func TestRunAddressesMatchesRunBatches(t *testing.T) {
	vas := batchTestVAs(41, 3000)
	for _, org := range []Org{Radix, ECPT, MEHPT} {
		for _, inject := range []string{"", "nth=200"} {
			cfg := batchCfg(org, inject)
			want := batchedRun(t, cfg, vas, 1)
			if want.Failed != (inject != "") {
				t.Fatalf("%v %q: fill-1 run Failed=%v", org, inject, want.Failed)
			}
			got := oracleMachine(t, cfg).RunAddresses(func(emit func(addr.VirtAddr)) {
				for _, va := range vas {
					emit(va)
				}
			})
			assertSameResult(t, org.String()+" "+inject, got, want)
		}
	}
}

// TestBatchedLoopEmptySource: a producer that returns zero immediately ends
// the run cleanly with nothing accounted.
func TestBatchedLoopEmptySource(t *testing.T) {
	res := batchedRun(t, batchCfg(MEHPT, ""), nil, 64)
	if res.Failed || res.Accesses != 0 || res.Cycles != 0 {
		t.Errorf("empty source: %+v", res)
	}
}

// TestRunStreamMatchesRunBatches closes the loop with the trace engine: a
// binary trace replayed through RunStream must equal the same addresses fed
// through RunBatches (and hence the fill-1 run, via the tests above).
func TestRunStreamMatchesRunBatches(t *testing.T) {
	vas := batchTestVAs(37, 4000)
	cfg := batchCfg(ECPT, "")
	want := batchedRun(t, cfg, vas, 64)

	var buf bytes.Buffer
	if err := trace.WriteBinaryVAs(&buf, vas); err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.RunStream(s)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "binary replay", got, want)
}
