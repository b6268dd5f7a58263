// Package workload provides synthetic generators for the paper's eleven
// applications (Section VI): eight GraphBIG graph kernels, GUPS, MUMmer,
// and the SysBench memory benchmark. Real binaries and inputs are not
// available here, so each generator reproduces the property that drives the
// paper's results: the application's *touched footprint* and *access
// pattern*, calibrated so the page tables it populates reach the way sizes
// Table I reports.
//
// Calibration: a W-slot HPT way is the paper's final size when the touched
// cluster count is ≈1.2 × W (occupancy 0.8 at the previous size — above
// the 0.6 upsize threshold — and 0.4 at the final size — below it). Dense
// workloads touch 8 contiguous pages per cluster; sparse workloads (GUPS)
// touch ≈1 page per cluster.
package workload

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/pt"
	"repro/internal/snapshot"
)

// Kind selects the access-pattern family.
type Kind int

// Pattern families.
const (
	// Dense: a contiguous touched region; accesses mix sequential sweeps
	// with uniform random references (graph kernels, MUMmer, SysBench).
	Dense Kind = iota
	// Sparse: pages are scattered across a much larger data universe, so
	// page-table clustering cannot merge them (GUPS).
	Sparse
)

// Spec describes one application.
type Spec struct {
	Name string
	// DataBytes is the application's data memory (Table I column 2).
	DataBytes uint64
	// TouchedBytes is the memory actually faulted in during the measured
	// window, calibrated to Table I's page-table sizes.
	TouchedBytes uint64
	Kind         Kind
	// SeqFraction is the probability an access continues a sequential
	// sweep rather than jumping uniformly at random.
	SeqFraction float64
	// BlockBytes, when nonzero, makes random jumps land on block
	// boundaries and continue sequentially within the block (SysBench's
	// blocked access).
	BlockBytes uint64
	// THPFraction is the fraction of the touched region that is
	// THP-eligible, calibrated to Table I's THP columns.
	THPFraction float64
	// HotFraction is the probability an access targets the hot working set
	// (models the temporal locality real applications have: frontiers,
	// property arrays, stacks). Hot accesses mostly hit caches and TLBs;
	// the remaining accesses stress translation.
	HotFraction float64
	// HotBytes is the hot working-set size; it defaults to 256KB, which
	// fits the L2 cache and the L1 TLB.
	HotBytes uint64
}

// BaseVA is where the touched region (dense) or data universe (sparse)
// starts in virtual memory.
const BaseVA = addr.VirtAddr(0x5800_0000_0000)

// wayTargets maps each application to the final ECPT/ME-HPT way size
// (bytes) Table I and Figure 12 report for 4KB pages without THP, from
// which TouchedBytes is derived.
func touchedForWay(wayBytes uint64, kind Kind) uint64 {
	slots := wayBytes / pt.EntryBytes
	clusters := slots + slots/5 // 1.2 × W
	if kind == Sparse {
		return clusters * 4 * addr.KB // one page per cluster
	}
	return clusters * pt.ClusterSpan * 4 * addr.KB
}

// Specs returns the eleven applications in the paper's order. scale divides
// every size (scale 1 = the paper's full configuration); it must be ≥ 1.
func Specs(scale uint64) []Spec {
	if scale == 0 {
		scale = 1
	}
	d := func(gb float64) uint64 { return uint64(gb*float64(addr.GB)) / scale }
	w := func(wayBytes uint64, kind Kind) uint64 {
		return touchedForWay(wayBytes/scale, kind)
	}
	return []Spec{
		{Name: "BC", DataBytes: d(17.3), TouchedBytes: w(8*addr.MB, Dense), Kind: Dense, SeqFraction: 0.55, THPFraction: 0, HotFraction: 0.68},
		{Name: "BFS", DataBytes: d(9.3), TouchedBytes: w(16*addr.MB, Dense), Kind: Dense, SeqFraction: 0.5, THPFraction: 0, HotFraction: 0.65},
		{Name: "CC", DataBytes: d(9.3), TouchedBytes: w(16*addr.MB, Dense), Kind: Dense, SeqFraction: 0.55, THPFraction: 0, HotFraction: 0.65},
		{Name: "DC", DataBytes: d(9.3), TouchedBytes: w(16*addr.MB, Dense), Kind: Dense, SeqFraction: 0.65, THPFraction: 0, HotFraction: 0.68},
		{Name: "DFS", DataBytes: d(9.0), TouchedBytes: w(16*addr.MB, Dense), Kind: Dense, SeqFraction: 0.35, THPFraction: 0, HotFraction: 0.6},
		{Name: "GUPS", DataBytes: d(64), TouchedBytes: w(64*addr.MB, Sparse), Kind: Sparse, SeqFraction: 0.02, THPFraction: 1.0, HotFraction: 0.05},
		{Name: "MUMmer", DataBytes: d(6.9), TouchedBytes: w(1*addr.MB, Dense), Kind: Dense, SeqFraction: 0.45, THPFraction: 0.5, HotFraction: 0.6},
		{Name: "PR", DataBytes: d(9.3), TouchedBytes: w(16*addr.MB, Dense), Kind: Dense, SeqFraction: 0.7, THPFraction: 0, HotFraction: 0.68},
		{Name: "SSSP", DataBytes: d(9.3), TouchedBytes: w(16*addr.MB, Dense), Kind: Dense, SeqFraction: 0.5, THPFraction: 0, HotFraction: 0.65},
		{Name: "SysBench", DataBytes: d(64), TouchedBytes: w(64*addr.MB, Dense), Kind: Dense, SeqFraction: 0.6, BlockBytes: 1 * addr.KB, THPFraction: 1.0, HotFraction: 0.15},
		{Name: "TC", DataBytes: d(11.9), TouchedBytes: w(2*addr.MB, Dense), Kind: Dense, SeqFraction: 0.6, THPFraction: 0, HotFraction: 0.68},
	}
}

// ErrEmptySpec is returned for a scale that divides an application's
// touched footprint below one page: its trace would have no page to
// access.
var ErrEmptySpec = errors.New("workload: scale leaves the application no touched page")

// ByName returns the spec with the given name at the given scale. It
// returns an error wrapping ErrEmptySpec if the scale empties the spec.
func ByName(name string, scale uint64) (Spec, error) {
	for _, s := range Specs(scale) {
		if s.Name == name {
			if err := s.check(scale); err != nil {
				return Spec{}, err
			}
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown application %q", name)
}

// CheckScale returns an error wrapping ErrEmptySpec if scale empties any
// application's spec.
func CheckScale(scale uint64) error {
	for _, s := range Specs(scale) {
		if err := s.check(scale); err != nil {
			return err
		}
	}
	return nil
}

func (s Spec) check(scale uint64) error {
	if s.touchedPages() == 0 {
		return fmt.Errorf("%w: %s at scale %d", ErrEmptySpec, s.Name, scale)
	}
	return nil
}

// touchedPages returns how many distinct 4KB pages the workload faults in.
func (s Spec) touchedPages() uint64 { return s.TouchedBytes / (4 * addr.KB) }

// universePages returns the page count of the data universe sparse accesses
// draw from, rounded down to a power of two so that the odd-multiplier page
// scatter (i*K mod N with gcd(K,N)=1) visits distinct pages.
func (s Spec) universePages() uint64 {
	p := s.DataBytes / (4 * addr.KB)
	if p < s.touchedPages() {
		p = s.touchedPages()
	}
	pow := uint64(1)
	for pow*2 <= p {
		pow *= 2
	}
	for pow < s.touchedPages() {
		pow *= 2
	}
	return pow
}

// sparseStride is the odd multiplier that spreads sparse page indices over
// the data universe: page i lives at (i*sparseStride) mod universe. The
// multiplier is a large odd constant, so indices are distinct until the
// universe wraps and consecutive pages land far apart (no clustering).
const sparseStride = 0x9E3779B97F4A7C15

// pageVA returns the virtual address of the i-th touched page in
// first-touch order, given the spec's kind and universePages, which only a
// sparse spec reads. It is a function, not a Spec method, so that the trace
// generator's per-access call does not copy the Spec. The universe is a
// power of two, so the scatter's modulo is a mask.
func pageVA(kind Kind, i, universe uint64) addr.VirtAddr {
	if kind == Sparse {
		i = (i * sparseStride) & (universe - 1)
	}
	return BaseVA + addr.VirtAddr(i*4*addr.KB)
}

// TouchedPageVAs iterates the distinct pages in first-touch order, calling
// f for each. Experiment drivers use it to populate page tables at full
// scale. f returning false stops the iteration.
func (s Spec) TouchedPageVAs(f func(va addr.VirtAddr) bool) {
	n, universe := s.touchedPages(), s.universePages()
	for i := uint64(0); i < n; i++ {
		if !f(pageVA(s.Kind, i, universe)) {
			return
		}
	}
}

// Trace generates the timing-mode access stream: a deterministic sequence
// of n virtual addresses following the spec's pattern.
type Trace struct {
	src     *snapshot.Source // counting source, drawn directly; its position is TraceState.RNG
	n       uint64
	emitted uint64
	// sequential cursor state
	curPage uint64 // index into touched pages
	curOff  uint64

	// The spec's constants, derived once so that Next neither copies the
	// Spec nor recomputes them per access.

	// Not in the snapshot: derived from the spec by newTrace; Spec.RestoreTrace is a method on the caller's (matching) spec
	kind Kind
	// Not in the snapshot: the spec's HotFraction and SeqFraction, copied by newTrace from the caller's (matching) spec
	hotFrac, seqFrac float64
	// Not in the snapshot: derived from the spec by newTrace: touched, hot and block pages, block count, sparse universe
	pages, hotPages, blockPages, blocks, universe uint64
}

// newTrace returns a trace of n accesses of s drawing from src, with the
// spec's constants derived. blockPages is 0 for an unblocked spec, and
// universe 0 for a dense one.
func (s Spec) newTrace(src *snapshot.Source, n uint64) *Trace {
	t := &Trace{src: src, n: n, kind: s.Kind,
		hotFrac: s.HotFraction, seqFrac: s.SeqFraction, pages: s.touchedPages()}
	hot := s.HotBytes
	if hot == 0 {
		hot = 256 * addr.KB
	}
	t.hotPages = min(hot/(4*addr.KB), t.pages)
	if s.BlockBytes > 0 {
		t.blockPages = max(s.BlockBytes/(4*addr.KB), 1)
		t.blocks = max(t.pages/t.blockPages, 1)
	}
	if s.Kind == Sparse {
		t.universe = s.universePages()
	}
	return t
}

// NewTrace creates a trace of n accesses with the given seed.
func (s Spec) NewTrace(seed int64, n uint64) *Trace {
	return s.newTrace(snapshot.NewSource(seed), n)
}

// TraceState is the serializable position of a Trace: the generator stream
// position plus the sequential cursor. The Spec and length are construction
// parameters and must match on restore.
type TraceState struct {
	N       uint64
	Emitted uint64
	CurPage uint64
	CurOff  uint64
	RNG     snapshot.SourceState
}

// State returns the trace's current position.
func (t *Trace) State() TraceState {
	return TraceState{
		N:       t.n,
		Emitted: t.emitted,
		CurPage: t.curPage,
		CurOff:  t.curOff,
		RNG:     t.src.State(),
	}
}

// RestoreTrace recreates a trace of spec at the recorded position.
func (s Spec) RestoreTrace(st TraceState) *Trace {
	t := s.newTrace(snapshot.RestoreSource(st.RNG), st.N)
	t.emitted, t.curPage, t.curOff = st.Emitted, st.CurPage, st.CurOff
	return t
}

// Next returns the next access, or false when the trace is exhausted.
func (t *Trace) Next() (addr.VirtAddr, bool) {
	if t.emitted >= t.n {
		return 0, false
	}
	t.emitted++
	// Hot-set access: a reference into the small resident working set at
	// the front of the touched region.
	if t.hotFrac > 0 && t.src.Float64() < t.hotFrac {
		pg := uint64(t.src.Int63()) % t.hotPages
		off := (uint64(t.src.Int63()) % (4 * addr.KB)) &^ 7
		return pageVA(t.kind, pg, t.universe) + addr.VirtAddr(off), true
	}
	if t.src.Float64() >= t.seqFrac {
		// Random jump.
		if t.blockPages > 0 {
			t.curPage = (uint64(t.src.Int63()) % t.blocks) * t.blockPages
			t.curOff = 0
		} else {
			t.curPage = uint64(t.src.Int63()) % t.pages
			t.curOff = uint64(t.src.Int63()) % (4 * addr.KB)
			t.curOff &^= 7
		}
	} else {
		// Sequential step: next cache line.
		t.curOff += 64
		if t.curOff >= 4*addr.KB {
			t.curOff = 0
			t.curPage++
			if t.curPage >= t.pages {
				t.curPage = 0
			}
		}
	}
	return pageVA(t.kind, t.curPage, t.universe) + addr.VirtAddr(t.curOff), true
}

// NextBatch fills out with the next accesses of the trace and returns how
// many it produced — short only when the trace ends. It draws the exact
// RNG sequence len-sequential-Next-calls would, so a batched consumer sees
// a bit-identical access stream.
func (t *Trace) NextBatch(out []addr.VirtAddr) int {
	for i := range out {
		va, ok := t.Next()
		if !ok {
			return i
		}
		out[i] = va
	}
	return len(out)
}
