package experiments

import (
	"io"
	"strings"
	"testing"

	"repro/internal/addr"
)

// The unit tests run every driver at a heavy scale-down; they verify
// structural properties that hold at any scale. The full-scale numbers are
// produced by cmd/mehpt-experiments and recorded in EXPERIMENTS.md.

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2()
	want := []struct {
		chunk, way, map4k, map2m uint64
	}{
		{8 * addr.KB, 512 * addr.KB, 768 * addr.MB, 384 * addr.GB},
		{1 * addr.MB, 64 * addr.MB, 96 * addr.GB, 48 * addr.TB},
		{8 * addr.MB, 512 * addr.MB, 768 * addr.GB, 384 * addr.TB},
		{64 * addr.MB, 4 * addr.GB, 6 * addr.TB, 3072 * addr.TB},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, w := range want {
		r := rows[i]
		if r.ChunkBytes != w.chunk || r.MaxWayBytes != w.way ||
			r.MaxMap4K != w.map4k || r.MaxMap2M != w.map2m {
			t.Errorf("row %d = %+v, want %+v", i, r, w)
		}
	}
}

func TestAllocCostMatchesPaper(t *testing.T) {
	rows := AllocCost(0.7)
	want := map[uint64]uint64{
		4 * addr.KB:  4000,
		8 * addr.KB:  5000,
		1 * addr.MB:  750000,
		8 * addr.MB:  13000000,
		64 * addr.MB: 120000000,
	}
	for _, r := range rows {
		w := want[r.SizeBytes]
		if diff := int64(r.Cycles) - int64(w); diff < -1 || diff > 1 {
			t.Errorf("cost(%d) = %d, want %d", r.SizeBytes, r.Cycles, w)
		}
	}
}

func TestFragmentationStress(t *testing.T) {
	rows := RunFragmentationStress(2*addr.GB, 3)
	bysize := map[uint64]bool{}
	for _, r := range rows {
		bysize[r.SizeBytes] = r.OK
	}
	if !bysize[8*addr.KB] || !bysize[1*addr.MB] {
		t.Error("ME-HPT chunk sizes failed to allocate under fragmentation")
	}
	if bysize[64*addr.MB] {
		t.Error("64MB allocation succeeded on shredded memory")
	}
}

func TestTable1Structure(t *testing.T) {
	o := TestOptions()
	rows := Table1(o)
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	for _, r := range rows {
		if r.Failed {
			t.Errorf("%s failed: %s", r.App, r.FailureReason)
			continue
		}
		if r.TreeContig != 4*addr.KB {
			t.Errorf("%s: radix contiguity %d, want 4KB", r.App, r.TreeContig)
		}
		if r.ECPTContig < 8*addr.KB {
			t.Errorf("%s: ECPT contiguity %d below a way", r.App, r.ECPTContig)
		}
		// ECPT uses more page-table memory than the radix tree (paper:
		// ~2.4x). At the test scale-down the smallest app (MUMmer) sits at
		// the initial table size where both are trivial, so skip it.
		if r.App != "MUMmer" && r.ECPTTotal <= r.TreeTotal {
			t.Errorf("%s: ECPT total %d not above radix %d (paper: ~2.4x)",
				r.App, r.ECPTTotal, r.TreeTotal)
		}
	}
	// THP must collapse GUPS/SysBench page tables.
	for _, r := range rows {
		if r.App == "GUPS" || r.App == "SysBench" {
			if r.ECPTTotalTHP*4 > r.ECPTTotal {
				t.Errorf("%s: THP total %d not ≪ no-THP total %d",
					r.App, r.ECPTTotalTHP, r.ECPTTotal)
			}
		}
	}
	var sb strings.Builder
	FprintTable1(&sb, rows)
	if !strings.Contains(sb.String(), "GUPS") {
		t.Error("printout missing rows")
	}
}

func TestFigure8Direction(t *testing.T) {
	o := TestOptions()
	rows := Figure8(o)
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	// For the demanding workloads the ME-HPT contiguity must not exceed
	// ECPT's (at small test scales the graph workloads sit at the chunk
	// boundary where both need 1MB, so assert on GUPS/SysBench).
	for _, r := range rows {
		if r.App == "GUPS" || r.App == "SysBench" {
			if r.MEHPT >= r.ECPT {
				t.Errorf("%s: ME-HPT contiguity %d not below ECPT %d", r.App, r.MEHPT, r.ECPT)
			}
		}
	}
}

func TestFigure10Direction(t *testing.T) {
	o := TestOptions()
	rows := Figure10(o)
	if len(rows) != 22 {
		t.Fatalf("rows = %d, want 22 (11 apps x 2 THP)", len(rows))
	}
	saved := 0
	for _, r := range rows {
		if r.MEHPTPeak < r.ECPTPeak {
			saved++
		}
	}
	if saved < 11 {
		t.Errorf("only %d/22 configurations saved page-table memory", saved)
	}
}

func TestFigure11Balance(t *testing.T) {
	o := TestOptions()
	rows := Figure11(o)
	for _, r := range rows {
		max, min := uint64(0), ^uint64(0)
		for _, u := range r.Ways {
			if u > max {
				max = u
			}
			if u < min {
				min = u
			}
		}
		if max-min > 1 {
			t.Errorf("%s: per-way upsizes unbalanced: %v", r.App, r.Ways)
		}
	}
}

func TestFigure12and14(t *testing.T) {
	o := TestOptions()
	for _, r := range Figure12(o) {
		if len(r.WayBytes) != 3 {
			t.Errorf("%s: %d ways", r.App, len(r.WayBytes))
		}
	}
	for _, r := range Figure14(o) {
		if r.Used <= 0 || r.Used > 288 {
			t.Errorf("%s: L2P usage %d out of range", r.App, r.Used)
		}
	}
}

func TestFigure13MoveFraction(t *testing.T) {
	o := TestOptions()
	rows := Figure13(o)
	n := 0
	for _, r := range rows {
		if r.Fraction < 0 {
			continue
		}
		n++
		if r.Fraction < 0.35 || r.Fraction > 0.65 {
			t.Errorf("%s: move fraction %.3f not ≈0.5", r.App, r.Fraction)
		}
	}
	if n == 0 {
		t.Fatal("no applications had upsizes")
	}
}

func TestFigure15ChunkLadder(t *testing.T) {
	o := TestOptions()
	o.Scale = 1 // Figure 15 already uses tiny graphs; full scale is cheap
	rows := Figure15(o)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Small graphs: the 8KB+1MB ladder uses (much) less memory than
	// 1MB-only; at 100K nodes they converge.
	if rows[0].Way8KBPlus1M >= rows[0].Way1MBOnly {
		t.Errorf("1K nodes: default ladder %d not below 1MB-only %d",
			rows[0].Way8KBPlus1M, rows[0].Way1MBOnly)
	}
	if rows[2].Way1MBOnly > 2*rows[2].Way8KBPlus1M {
		t.Errorf("100K nodes: designs should converge: %d vs %d",
			rows[2].Way1MBOnly, rows[2].Way8KBPlus1M)
	}
}

func TestFigure16Distribution(t *testing.T) {
	o := TestOptions()
	rows, mean := Figure16(o)
	if rows[0].Probability < 0.5 {
		t.Errorf("P(0 reinsertions) = %.3f, want > 0.5 (paper 0.64)", rows[0].Probability)
	}
	if mean > 1.5 {
		t.Errorf("mean reinsertions %.2f implausibly high (paper 0.7)", mean)
	}
}

func TestFigure9SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("timed experiment")
	}
	o := TestOptions()
	o.TimedAccesses = 200_000
	rows := Figure9(o)
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for cfg, reason := range r.Failed {
			t.Errorf("%s/%s failed: %s", r.App, cfg, reason)
		}
		if r.MEHPT <= 0 {
			t.Errorf("%s: no ME-HPT speedup computed", r.App)
		}
	}
	var sb strings.Builder
	FprintFigure9(&sb, rows)
	if !strings.Contains(sb.String(), "GeoMean") {
		t.Error("summary missing")
	}
}

// TestFigure9FailureLines: a row's failures print in the table's column
// order however the Failed map iterates, so fifty renders of one row are
// the same text.
func TestFigure9FailureLines(t *testing.T) {
	rows := []Figure9Row{{
		App: "GUPS", Radix: 1, ECPT: 1.5,
		Failed: map[string]string{
			"ME-HPT+THP": "e6",
			"ME-HPT":     "e3",
			"Radix+THP":  "e4",
			"ECPT+THP":   "e5",
		},
	}}
	want := "Figure 9: speedup over Radix (no THP)\n" +
		"App         Radix    ECPT  ME-HPT Radix+THP  ECPT+THP ME-HPT+THP\n" +
		"GUPS         1.00    1.50    0.00      0.00      0.00      0.00\n" +
		"          ME-HPT FAILED: e3\n" +
		"          Radix+THP FAILED: e4\n" +
		"          ECPT+THP FAILED: e5\n" +
		"          ME-HPT+THP FAILED: e6\n" +
		"GeoMean ME-HPT speedup over Radix: 0.00x (no THP; paper 1.23x), 0.00x (THP; paper 1.28x)\n" +
		"GeoMean ME-HPT speedup over ECPT:  0.00x (no THP; paper 1.09x), 0.00x (THP; paper 1.06x)\n"
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		FprintFigure9(&sb, rows)
		if got := sb.String(); got != want {
			t.Fatalf("render %d:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func TestFprintNilWriterSafe(t *testing.T) {
	// fprintf must tolerate nil writers (drivers used programmatically).
	fprintf(nil, "nothing %d", 1)
	var w io.Writer
	fprintf(w, "still nothing")
}

func TestFiveLevelMotivation(t *testing.T) {
	o := TestOptions()
	o.TimedAccesses = 100_000
	rows := FiveLevelMotivation(o, "BFS")
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if !(r.HPTCycles < r.Radix4Cycles && r.Radix4Cycles < r.Radix5Cycles) {
		t.Errorf("walk latencies not ordered HPT < 4L < 5L: %+v", r)
	}
}

func TestVirtualization(t *testing.T) {
	o := TestOptions()
	rows := Virtualization(o, 64)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	radix, hpt := rows[0], rows[1]
	if hpt.AvgAccesses >= radix.AvgAccesses/3 {
		t.Errorf("nested hashed %.1f accesses not ≪ nested radix %.1f",
			hpt.AvgAccesses, radix.AvgAccesses)
	}
	if hpt.AvgWalkCycle >= radix.AvgWalkCycle {
		t.Errorf("nested hashed walk cycles %.0f not below radix %.0f",
			hpt.AvgWalkCycle, radix.AvgWalkCycle)
	}
}
