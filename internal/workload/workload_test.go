package workload

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/pt"
)

func TestSpecsComplete(t *testing.T) {
	var names []string
	for _, s := range Specs(1) {
		names = append(names, s.Name)
	}
	want := []string{"BC", "BFS", "CC", "DC", "DFS", "GUPS", "MUMmer", "PR", "SSSP", "SysBench", "TC"}
	if len(names) != len(want) {
		t.Fatalf("got %d specs, want %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("spec %d = %s, want %s (paper order)", i, names[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("GUPS", 1)
	if err != nil || s.Name != "GUPS" {
		t.Fatalf("ByName(GUPS) = %+v, %v", s, err)
	}
	if s.Kind != Sparse {
		t.Error("GUPS must be sparse")
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestEmptySpecRejected: a scale that divides an application's touched
// footprint below one page is an error, not a trace that divides by zero
// pages.
func TestEmptySpecRejected(t *testing.T) {
	if _, err := ByName("GUPS", 1<<32); !errors.Is(err, ErrEmptySpec) {
		t.Errorf("ByName(GUPS, 2^32) error %v, want ErrEmptySpec", err)
	}
	if err := CheckScale(1 << 32); !errors.Is(err, ErrEmptySpec) {
		t.Errorf("CheckScale(2^32) = %v, want ErrEmptySpec", err)
	}
	// MUMmer, the smallest footprint, is the first to empty.
	if err := CheckScale(16384); err != nil {
		t.Errorf("CheckScale(16384) = %v", err)
	}
	if _, err := ByName("MUMmer", 16385); !errors.Is(err, ErrEmptySpec) {
		t.Errorf("ByName(MUMmer, 16385) error %v, want ErrEmptySpec", err)
	}
	if _, err := ByName("BC", 16385); err != nil {
		t.Errorf("ByName(BC, 16385) = %v", err)
	}
}

// TestCalibration verifies the Table I calibration arithmetic: the touched
// cluster count is 1.2× the slot count of the paper's final way size.
func TestCalibration(t *testing.T) {
	cases := map[string]uint64{ // app -> final way bytes (Table I / Fig 12)
		"BFS":      16 * addr.MB,
		"BC":       8 * addr.MB,
		"GUPS":     64 * addr.MB,
		"SysBench": 64 * addr.MB,
		"MUMmer":   1 * addr.MB,
		"TC":       2 * addr.MB,
	}
	for app, way := range cases {
		s, _ := ByName(app, 1)
		slots := way / pt.EntryBytes
		var clusters uint64
		if s.Kind == Sparse {
			clusters = s.TouchedBytes / (4 * addr.KB) // 1 page per cluster
		} else {
			clusters = s.TouchedBytes / (4 * addr.KB) / pt.ClusterSpan
		}
		lo, hi := slots*105/100, slots*135/100
		if clusters < lo || clusters > hi {
			t.Errorf("%s: %d clusters for %d-slot way; want ≈1.2x in [%d,%d]",
				app, clusters, slots, lo, hi)
		}
	}
}

func TestScaleDividesFootprints(t *testing.T) {
	full, _ := ByName("BFS", 1)
	half, _ := ByName("BFS", 2)
	if half.TouchedBytes*2 > full.TouchedBytes+full.TouchedBytes/10 ||
		half.TouchedBytes*2 < full.TouchedBytes-full.TouchedBytes/10 {
		t.Errorf("scale 2 touched %d not ≈ half of %d", half.TouchedBytes, full.TouchedBytes)
	}
}

// TestSparsePagesDistinct: the multiplicative scatter must produce distinct
// pages with no cluster sharing.
func TestSparsePagesDistinct(t *testing.T) {
	s, _ := ByName("GUPS", 64)
	n := s.touchedPages()
	seenPage := make(map[addr.VirtAddr]bool, n)
	seenCluster := make(map[uint64]int, n)
	i := 0
	s.TouchedPageVAs(func(va addr.VirtAddr) bool {
		if seenPage[va] {
			t.Fatalf("duplicate sparse page at index %d", i)
		}
		seenPage[va] = true
		seenCluster[pt.ClusterKey(va.PageNumber(addr.Page4K))]++
		i++
		return true
	})
	// Sparse pages should rarely share a cluster (at full scale the
	// low-discrepancy scatter shares none; small test universes share a
	// little).
	shared := 0
	for _, c := range seenCluster {
		if c > 1 {
			shared++
		}
	}
	if float64(shared) > 0.10*float64(len(seenCluster)) {
		t.Errorf("%d of %d clusters shared; sparse scatter broken", shared, len(seenCluster))
	}
}

func TestDensePagesContiguous(t *testing.T) {
	s, _ := ByName("BFS", 64)
	i := uint64(0)
	s.TouchedPageVAs(func(va addr.VirtAddr) bool {
		if want := BaseVA + addr.VirtAddr(i*4096); va != want {
			t.Fatalf("dense page %d at %#x, want %#x", i, uint64(va), uint64(want))
		}
		i++
		return i < 100
	})
}

func TestTouchedPageVAsCount(t *testing.T) {
	s, _ := ByName("TC", 64)
	count := uint64(0)
	s.TouchedPageVAs(func(va addr.VirtAddr) bool {
		count++
		return true
	})
	if count != s.touchedPages() {
		t.Errorf("iterated %d pages, want %d", count, s.touchedPages())
	}
	// Early stop.
	count = 0
	s.TouchedPageVAs(func(va addr.VirtAddr) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop after %d, want 10", count)
	}
}

// TestTouchedPageVAsMatchesPageVA: iterating the touched pages, which
// computes the sparse universe once and scatters by mask, yields exactly
// the page layout's definition for a sparse and a dense workload: page i
// at BaseVA + 4KB·i, with i scattered to i·sparseStride mod the universe
// when sparse.
func TestTouchedPageVAsMatchesPageVA(t *testing.T) {
	for _, name := range []string{"GUPS", "BFS"} {
		s, _ := ByName(name, 64)
		i := uint64(0)
		s.TouchedPageVAs(func(va addr.VirtAddr) bool {
			page := i
			if s.Kind == Sparse {
				page = i * sparseStride % s.universePages()
			}
			if want := BaseVA + addr.VirtAddr(page*4096); va != want {
				t.Fatalf("%s: page %d at %#x, want %#x", name, i, uint64(va), uint64(want))
			}
			i++
			return true
		})
		if i != s.touchedPages() || i == 0 {
			t.Errorf("%s: iterated %d pages, want %d", name, i, s.touchedPages())
		}
	}
}

// TestTraceStaysInTouchedRegion: every trace access must target a touched
// page (otherwise the timed phase would fault on new pages forever).
func TestTraceStaysInTouchedRegion(t *testing.T) {
	for _, name := range []string{"BFS", "GUPS", "SysBench"} {
		s, _ := ByName(name, 128)
		touched := make(map[addr.VirtAddr]bool)
		s.TouchedPageVAs(func(va addr.VirtAddr) bool {
			touched[va] = true
			return true
		})
		tr := s.NewTrace(1, 50_000)
		for {
			va, ok := tr.Next()
			if !ok {
				break
			}
			page := va.PageNumber(addr.Page4K).Addr(addr.Page4K)
			if !touched[page] {
				t.Fatalf("%s: access %#x outside touched set", name, va)
			}
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	s, _ := ByName("PR", 128)
	a, b := s.NewTrace(9, 1000), s.NewTrace(9, 1000)
	for {
		va1, ok1 := a.Next()
		va2, ok2 := b.Next()
		if ok1 != ok2 || va1 != va2 {
			t.Fatal("trace not deterministic")
		}
		if !ok1 {
			break
		}
	}
}

func TestTraceLength(t *testing.T) {
	s, _ := ByName("CC", 128)
	tr := s.NewTrace(3, 123)
	n := 0
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
		n++
	}
	if n != 123 || tr.n != 123 {
		t.Errorf("trace emitted %d accesses, want 123", n)
	}
}

// TestHotSetConcentration: with a high hot fraction, a large share of
// accesses hits the small hot region.
func TestHotSetConcentration(t *testing.T) {
	s, _ := ByName("PR", 128) // HotFraction 0.68
	hotLimit := BaseVA + addr.VirtAddr(256*addr.KB)
	tr := s.NewTrace(5, 20_000)
	hot := 0
	for {
		va, ok := tr.Next()
		if !ok {
			break
		}
		if va < hotLimit {
			hot++
		}
	}
	frac := float64(hot) / 20000
	if frac < s.HotFraction-0.1 {
		t.Errorf("hot-set share %.2f below configured %.2f", frac, s.HotFraction)
	}
}

func TestTHPFractionsMatchTableI(t *testing.T) {
	// Table I: graph kernels see no page-table change under THP; GUPS and
	// SysBench collapse almost entirely onto huge pages.
	for _, name := range []string{"BFS", "PR", "TC"} {
		s, _ := ByName(name, 1)
		if s.THPFraction != 0 {
			t.Errorf("%s THPFraction = %v, want 0", name, s.THPFraction)
		}
	}
	for _, name := range []string{"GUPS", "SysBench"} {
		s, _ := ByName(name, 1)
		if s.THPFraction != 1 {
			t.Errorf("%s THPFraction = %v, want 1", name, s.THPFraction)
		}
	}
}

// TestTraceRestoreContinues: a trace restored from its State after 1,000
// accesses emits the same next 10,000 addresses as the uninterrupted one,
// for every application — dense, sparse (GUPS) and blocked (SysBench) —
// so the constants RestoreTrace re-derives from the spec match NewTrace's.
func TestTraceRestoreContinues(t *testing.T) {
	for _, s := range Specs(64) {
		tr := s.NewTrace(7, 11_000)
		for i := 0; i < 1000; i++ {
			tr.Next()
		}
		restored := s.RestoreTrace(tr.State())
		for i := 0; i < 10_000; i++ {
			want, _ := tr.Next()
			if got, ok := restored.Next(); !ok || got != want {
				t.Fatalf("%s: access %d after restore = %#x (ok %v), uninterrupted %#x", s.Name, 1000+i, uint64(got), ok, uint64(want))
			}
		}
		if _, ok := restored.Next(); ok {
			t.Fatalf("%s: restored trace runs past its length", s.Name)
		}
	}
}

// TestNextBatchAllocFree guards the generator's hot path: NextBatch of
// every application's trace draws from its source and allocates nothing.
func TestNextBatchAllocFree(t *testing.T) {
	for _, s := range Specs(256) {
		tr := s.NewTrace(7, 1<<20)
		var out [64]addr.VirtAddr
		if n := testing.AllocsPerRun(500, func() {
			if got := tr.NextBatch(out[:]); got != len(out) {
				t.Fatalf("%s: NextBatch = %d mid-trace", s.Name, got)
			}
		}); n != 0 {
			t.Errorf("%s: NextBatch allocates %v objects per call", s.Name, n)
		}
	}
}
