// Package repro_test is the benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation. Each benchmark executes its
// experiment driver end to end at a scaled-down configuration (so the whole
// suite runs in minutes) and reports domain-specific metrics alongside
// ns/op. The full-scale numbers live in EXPERIMENTS.md and are regenerated
// with cmd/mehpt-experiments at -scale 1.
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/mehpt"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// benchOptions is the scaled configuration the benchmarks run at.
func benchOptions() experiments.Options {
	o := experiments.TestOptions()
	o.Scale = 64
	o.TimedAccesses = 500_000
	return o
}

func BenchmarkTable1(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(o)
		if len(rows) != 11 {
			b.Fatal("short table")
		}
		var ratio float64
		for _, r := range rows {
			ratio += float64(r.ECPTTotal) / float64(r.TreeTotal)
		}
		b.ReportMetric(ratio/11, "ecpt-vs-tree-mem")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if rows[1].MaxWayBytes != 64*addr.MB {
			b.Fatal("table II broken")
		}
	}
}

func BenchmarkAllocCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AllocCost(0.7)
		if rows[len(rows)-1].Cycles == 0 {
			b.Fatal("no cost")
		}
	}
	b.ReportMetric(float64(experiments.AllocCost(0.7)[4].Cycles), "cycles/64MB-alloc")
}

func BenchmarkFragmentationStress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFragmentationStress(1*addr.GB, int64(i))
		for _, r := range rows {
			if r.SizeBytes == 64*addr.MB && r.OK {
				b.Fatal("64MB allocation survived shredding")
			}
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure8(o)
		var worstECPT, worstME uint64
		for _, r := range rows {
			if r.ECPT > worstECPT {
				worstECPT = r.ECPT
			}
			if r.MEHPT > worstME {
				worstME = r.MEHPT
			}
		}
		b.ReportMetric(float64(worstECPT)/float64(1<<10), "ecpt-contig-KB")
		b.ReportMetric(float64(worstME)/float64(1<<10), "mehpt-contig-KB")
	}
}

func BenchmarkFigure9(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure9(o)
		var me []float64
		for _, r := range rows {
			if r.MEHPT > 0 {
				me = append(me, r.MEHPT)
			}
		}
		b.ReportMetric(stats.GeoMean(me), "mehpt-speedup-geomean")
	}
}

func BenchmarkFigure10(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure10(o)
		var saved []float64
		for _, r := range rows {
			saved = append(saved, r.ReductionPct)
		}
		b.ReportMetric(stats.Mean(saved), "pt-mem-saved-pct")
	}
}

func BenchmarkFigure11(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure11(o)
		var ups float64
		for _, r := range rows {
			for _, u := range r.Ways {
				ups += float64(u)
			}
		}
		b.ReportMetric(ups/float64(len(rows)*3), "upsizes/way")
	}
}

func BenchmarkFigure12(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure12(o)
		var maxWay uint64
		for _, r := range rows {
			for _, w := range r.WayBytes {
				if w > maxWay {
					maxWay = w
				}
			}
		}
		b.ReportMetric(float64(maxWay)/(1<<20), "max-way-MB")
	}
}

func BenchmarkFigure13(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure13(o)
		var fr []float64
		for _, r := range rows {
			if r.Fraction >= 0 {
				fr = append(fr, r.Fraction)
			}
		}
		b.ReportMetric(stats.Mean(fr), "moved-fraction")
	}
}

func BenchmarkFigure14(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure14(o)
		var used float64
		for _, r := range rows {
			used += float64(r.Used)
		}
		b.ReportMetric(used/float64(len(rows)), "l2p-entries")
	}
}

func BenchmarkFigure15(b *testing.B) {
	o := benchOptions()
	o.Scale = 1 // tiny graphs already
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure15(o)
		b.ReportMetric(float64(rows[0].Way1MBOnly)/float64(rows[0].Way8KBPlus1M),
			"1MB-vs-ladder-waste-1Knodes")
	}
}

func BenchmarkFigure16(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		_, mean := experiments.Figure16(o)
		b.ReportMetric(mean, "reinsertions/insert")
	}
}

// Ablation benches for the design choices DESIGN.md calls out. Each runs
// the -exp ablation driver and reports the rows its mechanism changes; the
// rows themselves are pinned by the single-process golden test.

// ablationRows runs the ablation driver once and indexes its rows by variant.
func ablationRows(b *testing.B) map[string]experiments.AblationRow {
	b.Helper()
	rows := experiments.Ablation(benchOptions())
	byName := make(map[string]experiments.AblationRow, len(rows))
	for _, r := range rows {
		byName[r.Variant] = r
	}
	return byName
}

func BenchmarkAblationInPlaceMoves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := ablationRows(b)
		// In-place resizing should move roughly half as many entries.
		b.ReportMetric(float64(rows["full design"].Moves), "inplace-moves")
		b.ReportMetric(float64(rows["out-of-place resize"].Moves), "outofplace-moves")
	}
}

func BenchmarkAblationWeightedInsert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := ablationRows(b)
		b.ReportMetric(rows["full design"].KicksPerInsert, "weighted-kicks/insert")
		b.ReportMetric(rows["uniform insert"].KicksPerInsert, "uniform-kicks/insert")
	}
}

func BenchmarkAblationChunkLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := ablationRows(b)
		b.ReportMetric(rows["full design"].PeakKB, "ladder-peak-KB")
		b.ReportMetric(rows["1MB-only ladder"].PeakKB, "1MBonly-peak-KB")
	}
}

func BenchmarkAblationOccupancyThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := ablationRows(b)
		for _, v := range []struct{ row, unit string }{
			{"upsize at 0.4", "upsize-0.4"},
			{"full design", "upsize-0.6"},
			{"upsize at 0.8", "upsize-0.8"},
		} {
			b.ReportMetric(rows[v.row].KicksPerInsert, v.unit+"-kicks/insert")
			b.ReportMetric(rows[v.row].PeakKB, v.unit+"-peak-KB")
		}
	}
}

// BenchmarkSectionIX runs the -exp sec9 driver: the paper's Section IX
// comparison against Level Hashing, probes per lookup and entries moved per
// resize.
func BenchmarkSectionIX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SectionIX(benchOptions())[0]
		b.ReportMetric(r.LevelHashProbesPerLookup, "levelhash-probes/lookup")
		b.ReportMetric(r.LevelHashMovedFraction, "levelhash-movefrac/resize")
		b.ReportMetric(r.MEHPTMovedFraction, "mehpt-movefrac/upsize")
	}
}

// BenchmarkHotPath measures the allocation-free steady-state paths in
// isolation: the TLB hit, the warm cache access, and the settled ME-HPT
// lookup. It is a profiling entry point; their 0 allocs/op are gated in
// tier-1 by tlb TestLookupHitAllocFree, cache TestAccessHitAllocFree and
// mehpt TestLookupAllocFree.
func BenchmarkHotPath(b *testing.B) {
	b.Run("TLBHit", func(b *testing.B) {
		tb := tlb.New(tlb.Config{Entries: 64, Ways: 4, Latency: 2})
		tb.Insert(42, 42)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := tb.Lookup(42); !ok {
				b.Fatal("warm TLB lookup missed")
			}
		}
	})
	b.Run("CacheAccessHit", func(b *testing.B) {
		h := cache.NewHierarchy(cache.TableIII())
		pa := addr.PhysAddr(0x4000)
		h.Access(pa)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if h.Access(pa) == 0 {
				b.Fatal("zero latency")
			}
		}
	})
	b.Run("MEHPTLookup", func(b *testing.B) {
		mem := phys.NewMemory(1 * addr.GB)
		alloc := phys.NewAllocator(mem, 0)
		cfg := mehpt.DefaultConfig(7)
		cfg.Rand = rand.New(rand.NewSource(1))
		p, err := mehpt.NewPageTable(alloc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		const pages = 512
		for i := 0; i < pages; i++ {
			if _, err := p.Map(addr.VPN(i), addr.Page4K, addr.PPN(1000+i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Table(addr.Page4K).DrainResizes(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := p.Translate(addr.VPN(i % pages).Addr(addr.Page4K)); !ok {
				b.Fatal("settled translate missed")
			}
		}
	})
}

// BenchmarkSteadyStateTranslate drives the full TranslateBatchPAs → TLB →
// walk → cache pipeline through sim.Machine.RunBatches over a TLB-resident
// working set, with the cold faults taken before the timer starts. Each op
// is one batch of accesses. It is a profiling entry point: sim
// TestRunBatchesAllocs gates the per-call allocations in tier-1, and the
// perfbench workloads measure accesses per second.
func BenchmarkSteadyStateTranslate(b *testing.B) {
	const batch = 8192
	for _, org := range []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT} {
		org := org
		b.Run(org.String(), func(b *testing.B) {
			m, err := sim.NewMachine(sim.Config{
				Org: org, Workload: workload.Spec{Name: "steady"},
				Seed: 1, MemBytes: 4 * addr.GB,
			})
			if err != nil {
				b.Fatal(err)
			}
			// 32 resident pages, pre-expanded into a batch-aligned ring so
			// the feed is a chunk copy — the cost shape of replaying a
			// decoded binary-trace buffer, keeping the timed region about
			// the pipeline rather than the address generator.
			const resident = 32
			ring := make([]addr.VirtAddr, 1024)
			for i := range ring {
				ring[i] = workload.BaseVA + addr.VirtAddr(i%resident)*4*addr.KB
			}
			replay := func(n int) sim.Result {
				pos := 0
				return m.RunBatches(func(out []addr.VirtAddr) int {
					k := len(out)
					if k > n-pos {
						k = n - pos
					}
					p := pos % len(ring) // ring length is a multiple of every batch width
					copy(out[:k], ring[p:p+k])
					pos += k
					return k
				})
			}
			if r := replay(resident); r.Failed { // fault the set in, untimed
				b.Fatal(r.FailReason)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r := replay(batch); r.Failed {
					b.Fatal(r.FailReason)
				}
			}
			b.ReportMetric(batch, "accesses/op")
		})
	}
}

// BenchmarkMultiTenant runs the sharded multi-core machine end to end —
// striped pool, seeded scheduler, shared-segment shootdowns — and checks
// its fingerprint stays fixed across iterations (a drifting fingerprint
// means nondeterminism, which is a correctness bug, not a perf number).
func BenchmarkMultiTenant(b *testing.B) {
	for _, org := range []sim.Org{sim.Radix, sim.MEHPT} {
		b.Run(org.String(), func(b *testing.B) {
			cfg := tenant.Config{
				Org:             org,
				Processes:       8,
				Cores:           4,
				MemBytes:        512 * addr.MB,
				FMFI:            0.7,
				Seed:            42,
				AccessesPerProc: 2000,
				Quantum:         256,
				Scale:           4096,
			}
			var fp string
			for i := 0; i < b.N; i++ {
				res, err := tenant.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if fp == "" {
					fp = res.Fingerprint
				} else if res.Fingerprint != fp {
					b.Fatal("fingerprint drifted across iterations")
				}
			}
			b.ReportMetric(float64(cfg.Processes)*float64(cfg.AccessesPerProc), "accesses/op")
		})
	}
}
