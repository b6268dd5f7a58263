package experiments

import (
	"io"

	"repro/internal/addr"
	"repro/internal/levelhash"
	"repro/internal/mehpt"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SectionIXRow compares ME-HPT's in-place resizing with Level Hashing, which
// moves fewer entries per resize (only its bottom level, ~1/3) but probes up
// to four buckets per lookup; an ME-HPT upsize moves ~1/2 with no extra probe.
type SectionIXRow struct {
	LevelHashProbesPerLookup float64
	LevelHashMovedFraction   float64 // moved ÷ entries present, per resize
	MEHPTMovedFraction       float64 // per 4KB-table upsize; -1 if none
}

// SectionIX measures ME-HPT on a populated BFS 4KB table, and Level
// Hashing on a fixed microbenchmark: a 64-bucket bottom level grown by
// 40 000 inserts, then 10 000 lookups of absent keys, which probe every
// candidate bucket.
func SectionIX(o Options) []SectionIXRow {
	lh := levelhash.New(64, 9)
	for k := uint64(0); k < 40_000; k++ {
		if err := lh.Insert(k, k); err != nil {
			o.noteFailure("levelhash", err.Error(), false, "")
			break
		}
	}
	for k := uint64(1_000_000); k < 1_010_000; k++ {
		lh.Lookup(k)
	}
	res := o.run([]runJob{pop(bfs(o), sim.MEHPT, false)})
	return []SectionIXRow{{
		LevelHashProbesPerLookup: lh.ProbesPerLookup(),
		LevelHashMovedFraction:   lh.MoveFractionPerResize(),
		MEHPTMovedFraction:       moveFraction(res[0]),
	}}
}

// FprintSectionIX renders the Section IX comparison.
func FprintSectionIX(w io.Writer, rows []SectionIXRow) {
	fprintf(w, "Section IX: Level Hashing vs ME-HPT in-place resizing\n")
	fprintf(w, "%-22s %14s %16s\n", "Scheme", "probes/lookup", "moved/resize")
	for _, r := range rows {
		fprintf(w, "%-22s %14.3f %16.3f\n", "Level Hashing", r.LevelHashProbesPerLookup, r.LevelHashMovedFraction)
		fprintf(w, "%-22s %14s %16s\n", "ME-HPT (in-place)", "-", fracStr(r.MEHPTMovedFraction))
	}
	fprintf(w, "Level Hashing moves ~1/3 per resize for up to 4 probes per lookup; ME-HPT moves ~1/2\n")
}

// AblationRow is one ME-HPT variant of the ablation study: the full design,
// or the full design with exactly one mechanism changed.
type AblationRow struct {
	Variant        string
	Moves          uint64  // page-table entries moved during population
	KicksPerInsert float64 // cuckoo displacements per 4KB-table insert
	PeakKB         float64 // peak page-table footprint
}

// ablationVariants are the Ablation rows after the full design.
var ablationVariants = []struct {
	name   string
	mutate func(*mehpt.Config)
}{
	{"out-of-place resize", func(c *mehpt.Config) { c.InPlace = false }},
	{"uniform insert", func(c *mehpt.Config) { c.WeightedInsert = false }},
	{"1MB-only ladder", func(c *mehpt.Config) { c.Ladder = []uint64{1 * addr.MB, 8 * addr.MB, 64 * addr.MB} }},
	{"upsize at 0.4", func(c *mehpt.Config) { c.UpsizeAt = 0.4 }},
	{"upsize at 0.8", func(c *mehpt.Config) { c.UpsizeAt = 0.8 }},
}

// Ablation populates BFS under the full ME-HPT design and under each
// single-mechanism variant. The variant configs are shared read-only across
// jobs (nil Rand), as in Figure 10.
func Ablation(o Options) []AblationRow {
	spec := bfs(o)
	jobs := []runJob{pop(spec, sim.MEHPT, false)}
	cfgs := make([]mehpt.Config, len(ablationVariants))
	for i, v := range ablationVariants {
		cfgs[i] = mehpt.DefaultConfig(uint64(o.Seed))
		v.mutate(&cfgs[i])
		jobs = append(jobs, runJob{spec: spec, org: sim.MEHPT, ablation: v.name, mcfg: &cfgs[i]})
	}
	res := o.run(jobs)
	rows := make([]AblationRow, len(res))
	for i, r := range res {
		rows[i] = AblationRow{Variant: "full design", Moves: r.PTMoves,
			PeakKB: float64(r.PTPeakBytes) / (1 << 10)}
		if i > 0 {
			rows[i].Variant = ablationVariants[i-1].name
		}
		if r.MEHPT != nil && r.MEHPT.Table(addr.Page4K) != nil {
			st := r.MEHPT.Table(addr.Page4K).Stats()
			rows[i].KicksPerInsert = float64(st.Kicks) / float64(max(st.Inserts, 1))
		}
	}
	return rows
}

// FprintAblation renders the ablation study.
func FprintAblation(w io.Writer, rows []AblationRow) {
	fprintf(w, "Ablation: ME-HPT mechanisms on a BFS population (4KB table)\n")
	fprintf(w, "%-20s %10s %14s %12s\n", "Variant", "moves", "kicks/insert", "peak KB")
	for _, r := range rows {
		fprintf(w, "%-20s %10d %14.3f %12.0f\n", r.Variant, r.Moves, r.KicksPerInsert, r.PeakKB)
	}
}

// bfs is the BFS workload at the configured scale.
func bfs(o Options) workload.Spec {
	spec, err := workload.ByName("BFS", o.Scale)
	if err != nil {
		panic(err) // unreachable: BFS is a built-in spec
	}
	return spec
}
