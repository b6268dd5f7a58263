package experiments

import (
	"io"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Figure9Row is one application's six bars in Figure 9: the speedup of each
// organization (±THP) over Radix without THP.
type Figure9Row struct {
	App      string
	Radix    float64 // 1.0 by definition
	ECPT     float64
	MEHPT    float64
	RadixTHP float64
	ECPTTHP  float64
	MEHPTTHP float64
	Failed   map[string]string // config -> failure reason, if any
}

// figure9Columns labels a row's six configurations in table order, which
// is also the order of Figure9's jobs per application and of the printed
// failure lines.
var figure9Columns = [6]string{"Radix", "ECPT", "ME-HPT", "Radix+THP", "ECPT+THP", "ME-HPT+THP"}

// Figure9 runs the timed performance comparison. Each configuration
// populates the full-scale footprint (charging page-table allocation and
// movement) and then executes the timed trace; speedups compare composed
// cycles (see perfCycles). The 66-run matrix (11 apps × 3 orgs × ±THP) is
// the suite's dominant cost and fans out over the worker pool.
func Figure9(o Options) []Figure9Row {
	specs := o.specs()
	var jobs []runJob
	for _, spec := range specs {
		for _, thp := range []bool{false, true} {
			for _, org := range []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT} {
				jobs = append(jobs, runJob{spec: spec, org: org, thp: thp, timed: true})
			}
		}
	}
	res := o.run(jobs)
	rows := make([]Figure9Row, 0, len(specs))
	for i, spec := range specs {
		row := Figure9Row{App: spec.Name, Failed: map[string]string{}}
		cyc := func(k int) float64 {
			r := res[i*6+k]
			if r.Failed {
				row.Failed[figure9Columns[k]] = r.FailReason
				return 0
			}
			return float64(perfCycles(r))
		}
		base := cyc(0)
		row.Radix = 1
		if e := cyc(1); e > 0 {
			row.ECPT = base / e
		}
		if m := cyc(2); m > 0 {
			row.MEHPT = base / m
		}
		if r := cyc(3); r > 0 {
			row.RadixTHP = base / r
		}
		if e := cyc(4); e > 0 {
			row.ECPTTHP = base / e
		}
		if m := cyc(5); m > 0 {
			row.MEHPTTHP = base / m
		}
		rows = append(rows, row)
	}
	return rows
}

// FprintFigure9 renders Figure 9 with the paper's summary ratios.
func FprintFigure9(w io.Writer, rows []Figure9Row) {
	fprintf(w, "Figure 9: speedup over Radix (no THP)\n")
	fprintf(w, "%-9s %7s %7s %7s %9s %9s %9s\n",
		"App", "Radix", "ECPT", "ME-HPT", "Radix+THP", "ECPT+THP", "ME-HPT+THP")
	var me, meTHP, meOverEC, meOverECTHP []float64
	for _, r := range rows {
		fprintf(w, "%-9s %7.2f %7.2f %7.2f %9.2f %9.2f %9.2f\n",
			r.App, r.Radix, r.ECPT, r.MEHPT, r.RadixTHP, r.ECPTTHP, r.MEHPTTHP)
		for _, cfg := range figure9Columns {
			if reason, ok := r.Failed[cfg]; ok {
				fprintf(w, "          %s FAILED: %s\n", cfg, reason)
			}
		}
		if r.MEHPT > 0 {
			me = append(me, r.MEHPT)
		}
		if r.MEHPTTHP > 0 {
			meTHP = append(meTHP, r.MEHPTTHP)
		}
		if r.ECPT > 0 && r.MEHPT > 0 {
			meOverEC = append(meOverEC, r.MEHPT/r.ECPT)
		}
		if r.ECPTTHP > 0 && r.MEHPTTHP > 0 {
			meOverECTHP = append(meOverECTHP, r.MEHPTTHP/r.ECPTTHP)
		}
	}
	fprintf(w, "GeoMean ME-HPT speedup over Radix: %.2fx (no THP; paper 1.23x), %.2fx (THP; paper 1.28x)\n",
		stats.GeoMean(me), stats.GeoMean(meTHP))
	fprintf(w, "GeoMean ME-HPT speedup over ECPT:  %.2fx (no THP; paper 1.09x), %.2fx (THP; paper 1.06x)\n",
		stats.GeoMean(meOverEC), stats.GeoMean(meOverECTHP))
}

// Figure13Row reports the fraction of entries moved per in-place upsize of
// the 4KB page tables.
type Figure13Row struct {
	App         string
	Fraction    float64 // -1 when the configuration has no upsizes
	FractionTHP float64
}

// Figure13 reads move fractions off populated ME-HPTs.
func Figure13(o Options) []Figure13Row {
	specs, no, thp := o.mehptPopulations()
	rows := make([]Figure13Row, 0, len(specs))
	for i, spec := range specs {
		rows = append(rows, Figure13Row{
			App:         spec.Name,
			Fraction:    moveFraction(no[i]),
			FractionTHP: moveFraction(thp[i]),
		})
	}
	return rows
}

func moveFraction(r sim.Result) float64 {
	if r.MEHPT == nil || r.MEHPT.Table(addr.Page4K) == nil {
		return -1
	}
	st := r.MEHPT.Table(addr.Page4K).Stats()
	total := st.UpsizeMoved + st.UpsizeStayed
	if total == 0 {
		return -1
	}
	return float64(st.UpsizeMoved) / float64(total)
}

// FprintFigure13 renders Figure 13.
func FprintFigure13(w io.Writer, rows []Figure13Row) {
	fprintf(w, "Figure 13: fraction of entries moved per 4KB-table upsize (paper: ≈0.5)\n")
	fprintf(w, "%-9s %8s %8s\n", "App", "noTHP", "THP")
	var all []float64
	for _, r := range rows {
		fprintf(w, "%-9s %8s %8s\n", r.App, fracStr(r.Fraction), fracStr(r.FractionTHP))
		if r.Fraction >= 0 {
			all = append(all, r.Fraction)
		}
		if r.FractionTHP >= 0 {
			all = append(all, r.FractionTHP)
		}
	}
	fprintf(w, "Average: %.3f\n", stats.Mean(all))
}

func fracStr(f float64) string {
	if f < 0 {
		return "-"
	}
	return stats.Ftoa(f)
}

// Figure16Row is the distribution of cuckoo re-insertions per insert or
// rehash, pooled across applications.
type Figure16Row struct {
	Reinsertions int
	Probability  float64
}

// Figure16 pools the re-insertion histograms of all populated ME-HPTs.
func Figure16(o Options) ([]Figure16Row, float64) {
	var jobs []runJob
	for _, spec := range o.specs() {
		jobs = append(jobs, pop(spec, sim.MEHPT, false))
	}
	var pooled stats.Histogram
	for _, r := range o.run(jobs) {
		if r.MEHPT == nil {
			continue
		}
		for _, s := range addr.Sizes() {
			t := r.MEHPT.Table(s)
			if t == nil {
				continue
			}
			h := t.Stats().Reinsertions
			pooled.Merge(&h)
		}
	}
	rows := make([]Figure16Row, 0, 12)
	for v := 0; v <= 11; v++ {
		rows = append(rows, Figure16Row{Reinsertions: v, Probability: pooled.Probability(v)})
	}
	return rows, pooled.Mean()
}

// FprintFigure16 renders Figure 16.
func FprintFigure16(w io.Writer, rows []Figure16Row, mean float64) {
	fprintf(w, "Figure 16: cuckoo re-insertions per insertion/rehash\n")
	for _, r := range rows {
		bar := ""
		for i := 0; i < int(r.Probability*60); i++ {
			bar += "#"
		}
		fprintf(w, "  %2d: %.3f %s\n", r.Reinsertions, r.Probability, bar)
	}
	fprintf(w, "Mean: %.2f (paper: 0.7, with P(0)=0.64)\n", mean)
}
