package experiments

import (
	"io"

	"repro/internal/addr"
	"repro/internal/chunk"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Table1Row is one application's row of Table I: data footprint, maximum
// page-table contiguous allocation (radix vs ECPT), and total page-table
// memory with and without THP.
type Table1Row struct {
	App           string
	DataBytes     uint64
	TouchedBytes  uint64
	TreeContig    uint64 // always 4KB
	ECPTContig    uint64 // the largest ECPT way
	TreeTotal     uint64
	ECPTTotal     uint64
	TreeTotalTHP  uint64
	ECPTTotalTHP  uint64
	Failed        bool
	FailureReason string
}

// Table1 reproduces Table I by populating radix and ECPT page tables with
// each workload's touched footprint, with and without THP.
func Table1(o Options) []Table1Row {
	specs := o.specs()
	var jobs []runJob
	for _, spec := range specs {
		jobs = append(jobs,
			pop(spec, sim.Radix, false), pop(spec, sim.Radix, true),
			pop(spec, sim.ECPT, false), pop(spec, sim.ECPT, true))
	}
	res := o.run(jobs)
	rows := make([]Table1Row, 0, len(specs))
	for i, spec := range specs {
		row := Table1Row{App: spec.Name, DataBytes: spec.DataBytes, TouchedBytes: spec.TouchedBytes}
		tree, treeTHP, ec, ecTHP := res[i*4], res[i*4+1], res[i*4+2], res[i*4+3]
		for _, r := range []sim.Result{tree, treeTHP, ec, ecTHP} {
			if r.Failed {
				row.Failed = true
				row.FailureReason = r.FailReason
			}
		}
		row.TreeContig = tree.MaxContiguous
		row.ECPTContig = ec.MaxContiguous
		row.TreeTotal = tree.PTPeakBytes
		row.ECPTTotal = ec.PTPeakBytes
		row.TreeTotalTHP = treeTHP.PTPeakBytes
		row.ECPTTotalTHP = ecTHP.PTPeakBytes
		rows = append(rows, row)
	}
	return rows
}

// FprintTable1 renders Table I's layout.
func FprintTable1(w io.Writer, rows []Table1Row) {
	fprintf(w, "Table I: Memory consumption of the applications\n")
	fprintf(w, "%-9s %9s | %10s %10s | %9s %9s | %9s %9s\n",
		"App", "Data",
		"Contig:Tree", "Contig:ECPT",
		"Tot:Tree", "Tot:ECPT", "THP:Tree", "THP:ECPT")
	var contTree, contEC, tt, te, ttT, teT []float64
	for _, r := range rows {
		fprintf(w, "%-9s %9s | %10s %10s | %9s %9s | %9s %9s%s\n",
			r.App, stats.HumanBytes(r.DataBytes),
			stats.HumanBytes(r.TreeContig), stats.HumanBytes(r.ECPTContig),
			stats.HumanBytes(r.TreeTotal), stats.HumanBytes(r.ECPTTotal),
			stats.HumanBytes(r.TreeTotalTHP), stats.HumanBytes(r.ECPTTotalTHP),
			failMark(r.Failed))
		contTree = append(contTree, float64(r.TreeContig))
		contEC = append(contEC, float64(r.ECPTContig))
		tt = append(tt, float64(r.TreeTotal))
		te = append(te, float64(r.ECPTTotal))
		ttT = append(ttT, float64(r.TreeTotalTHP))
		teT = append(teT, float64(r.ECPTTotalTHP))
	}
	fprintf(w, "%-9s %9s | %10s %10s | %9s %9s | %9s %9s\n",
		"GeoMean", "",
		stats.HumanBytes(uint64(stats.GeoMean(contTree))),
		stats.HumanBytes(uint64(stats.GeoMean(contEC))),
		stats.HumanBytes(uint64(stats.GeoMean(tt))),
		stats.HumanBytes(uint64(stats.GeoMean(te))),
		stats.HumanBytes(uint64(stats.GeoMean(ttT))),
		stats.HumanBytes(uint64(stats.GeoMean(teT))))
}

func failMark(failed bool) string {
	if failed {
		return "  (RUN FAILED)"
	}
	return ""
}

// Table2Row is one chunk size's row of Table II.
type Table2Row struct {
	ChunkBytes  uint64
	MaxWayBytes uint64
	MaxMap4K    uint64 // total HPT mapping space with 4KB pages
	MaxMap2M    uint64 // with 2MB pages
}

// Table2 reproduces the analytic Table II: the maximum way a full (stolen)
// L2P subtable supports per chunk size, and the data each 3-way HPT maps.
// One clustered slot maps ClusterSpan pages, so a table of S slots per way
// and W ways maps W × S × ClusterSpan × pageSize bytes at the upsize
// threshold... the paper reports raw capacity (occupancy 1), which we
// mirror: slots × span × page size × ways / ways — i.e. total slots times
// span times page bytes divided by the 3-way redundancy (an element lives
// in exactly one way, so total capacity is 3 × way slots).
func Table2() []Table2Row {
	const ways = 3
	rows := make([]Table2Row, 0, len(chunk.Ladder))
	for _, cb := range chunk.Ladder {
		way := chunk.MaxWayBytes(cb)
		slotsPerWay := way / pt.EntryBytes
		totalSlots := slotsPerWay * ways
		rows = append(rows, Table2Row{
			ChunkBytes:  cb,
			MaxWayBytes: way,
			MaxMap4K:    totalSlots * pt.ClusterSpan * 4 * addr.KB,
			MaxMap2M:    totalSlots * pt.ClusterSpan * 2 * addr.MB,
		})
	}
	return rows
}

// FprintTable2 renders Table II.
func FprintTable2(w io.Writer, rows []Table2Row) {
	fprintf(w, "Table II: Maximum HPT way sizes and mapping space per chunk size\n")
	fprintf(w, "%-10s %12s %18s %18s\n", "Chunk", "Max Way", "Map (4KB pages)", "Map (2MB pages)")
	for _, r := range rows {
		fprintf(w, "%-10s %12s %18s %18s\n",
			stats.HumanBytes(r.ChunkBytes), stats.HumanBytes(r.MaxWayBytes),
			stats.HumanBytes(r.MaxMap4K), stats.HumanBytes(r.MaxMap2M))
	}
}

// AllocCostRow is one point of the Section III measurement: the cycle cost
// of allocating and zeroing a contiguous chunk at 0.7 FMFI.
type AllocCostRow struct {
	SizeBytes uint64
	Cycles    uint64
}

// AllocCost reproduces the Section III allocation-cost curve from the cost
// model (which encodes the paper's measured anchors).
func AllocCost(fmfi float64) []AllocCostRow {
	sizes := []uint64{4 * addr.KB, 8 * addr.KB, 1 * addr.MB, 8 * addr.MB, 64 * addr.MB}
	rows := make([]AllocCostRow, 0, len(sizes))
	for _, s := range sizes {
		rows = append(rows, AllocCostRow{SizeBytes: s, Cycles: phys.DefaultCostModel.Cycles(s, fmfi)})
	}
	return rows
}

// FprintAllocCost renders the Section III numbers.
func FprintAllocCost(w io.Writer, fmfi float64, rows []AllocCostRow) {
	fprintf(w, "Section III: contiguous allocation cost at %.1f FMFI\n", fmfi)
	for _, r := range rows {
		fprintf(w, "  %-6s %12d cycles\n", stats.HumanBytes(r.SizeBytes), r.Cycles)
	}
}

// FragmentationStress demonstrates the paper's headline failure mode on a
// real shredded buddy allocator: above 0.7 FMFI, a 64MB contiguous
// allocation fails while 4KB/8KB/1MB chunk allocations keep succeeding.
type FragmentationStressRow struct {
	SizeBytes uint64
	OK        bool
}

// RunFragmentationStress shreds a memory so that free space survives only
// in blocks of at most 1MB (FMFI ≈ 1 at every larger order — the paper's
// ">0.7 FMFI" regime) and attempts each chunk size: ME-HPT's 8KB and 1MB
// chunks keep allocating while ECPT's 8MB/64MB ways cannot.
func RunFragmentationStress(memBytes uint64, seed int64) []FragmentationStressRow {
	mem := phys.NewMemory(memBytes)
	fr := phys.NewFragmenter(mem)
	rng := newRand(seed)
	_ = fr.Fragment(0.5, 0.3, phys.OrderFor(1*addr.MB), rng) //mehpt:allow errwrap -- best-effort fragmentation; the sweep measures whatever pressure it achieved
	sizes := []uint64{4 * addr.KB, 8 * addr.KB, 1 * addr.MB, 8 * addr.MB, 64 * addr.MB}
	rows := make([]FragmentationStressRow, 0, len(sizes))
	for _, s := range sizes {
		ppn, err := mem.Alloc(s)
		ok := err == nil
		if ok {
			mem.Free(ppn, phys.OrderFor(s))
		}
		rows = append(rows, FragmentationStressRow{SizeBytes: s, OK: ok})
	}
	return rows
}

// FprintFragmentationStress renders the stress rows.
func FprintFragmentationStress(w io.Writer, rows []FragmentationStressRow) {
	fprintf(w, "Fragmentation stress (free space shredded to ≤1MB blocks; FMFI ≈ 1 above that order):\n")
	for _, r := range rows {
		verdict := "OK"
		if !r.OK {
			verdict = "FAILS (paper: ECPT runs unable to finish)"
		}
		fprintf(w, "  alloc %-6s -> %s\n", stats.HumanBytes(r.SizeBytes), verdict)
	}
}
