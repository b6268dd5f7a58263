// Command perfbench is the repository benchmark. It drives the simulator's
// real drivers (sim.Machine, trace.BinaryReader, tenant.Machine) through
// their public functions on four workloads, checks their outputs, and
// prints one JSON result line:
//
//	perfbench -workload fig9-dense -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run; with
// -trace 1 it rebuilds the pipeline from the layers' public constructors,
// times every call into each layer, and reports the per-layer metrics.
// -workload all runs every workload in turn. See README.md for the
// workloads, metrics and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by every
// untraced run. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"accesses_per_s", "1/s"},
	{"setup_s", "s"},
	{"allocs_per_access", "count"},
	{"host_heap_mb", "MiB"},
	{"sim_cycles_per_access.radix", "cycles"},
	{"sim_cycles_per_access.ecpt", "cycles"},
	{"sim_cycles_per_access.mehpt", "cycles"},
	{"pt_peak_kb.radix", "KiB"},
	{"pt_peak_kb.ecpt", "KiB"},
	{"pt_peak_kb.mehpt", "KiB"},
	{"max_contig_kb.ecpt", "KiB"},
	{"max_contig_kb.mehpt", "KiB"},
}

// perLayer are the traced run's metrics. A layer a workload does not reach
// reports 0, as does a p99 with fewer than ten calls beyond it.
var perLayer = []metricDef{
	{"workload.gen_ns_per_access", "ns"},
	{"trace.decode_ns_per_access", "ns"},
	{"mmu.batch_ns_per_access", "ns"},
	{"mmu.accesses_per_batch_call", "count"},
	{"tlb.l1_hit_ratio", "ratio"},
	{"tlb.l2_hit_ratio", "ratio"},
	{"mmu.walk_ns", "ns"},
	{"mmu.walk_ns.p99", "ns"},
	{"mmu.walks_per_access", "count"},
	{"mmu.walk_cycles_per_walk.radix", "cycles"},
	{"mmu.walk_cycles_per_walk.ecpt", "cycles"},
	{"mmu.walk_cycles_per_walk.mehpt", "cycles"},
	{"ecpt.walk_ns", "ns"},
	{"mehpt.walk_ns", "ns"},
	{"ecpt.probe_slots_per_lookup", "count"},
	{"cache.batch_ns_per_access", "ns"},
	{"cache.access_ns", "ns"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.l2_hit_ratio", "ratio"},
	{"cache.l3_hit_ratio", "ratio"},
	{"cache.dram_per_access", "count"},
	{"radix.map_ns", "ns"},
	{"radix.map_ns.p99", "ns"},
	{"ecpt.map_ns", "ns"},
	{"ecpt.map_ns.p99", "ns"},
	{"mehpt.map_ns", "ns"},
	{"mehpt.map_ns.p99", "ns"},
	{"ecpt.kicks_per_insert", "count"},
	{"mehpt.kicks_per_insert", "count"},
	{"ecpt.upsizes", "count"},
	{"ecpt.moves", "count"},
	{"mehpt.upsizes", "count"},
	{"mehpt.transitions", "count"},
	{"mehpt.upsize_moved_fraction", "ratio"},
	{"mehpt.stalls", "count"},
	{"mehpt.stashed", "count"},
	{"mehpt.failed_upsizes", "count"},
	{"osmodel.fault_ns", "ns"},
	{"osmodel.fault_ns.p99", "ns"},
	{"osmodel.faults", "count"},
	{"osmodel.fault_cycles_per_fault", "cycles"},
	{"osmodel.pt_cycles_per_fault", "cycles"},
	{"phys.alloc_ns", "ns"},
	{"phys.free_ns", "ns"},
	{"phys.allocs_per_fault", "count"},
	{"phys.alloc_cycles_per_alloc", "cycles"},
	{"phys.failed_allocs", "count"},
	{"sim.loop_ns_per_access", "ns"},
	{"tenant.round_ns.p50", "ns"},
	{"tenant.round_ns.p95", "ns"},
	{"tenant.ns_per_access", "ns"},
	{"tenant.walks_per_access", "count"},
	{"tenant.tlb_hit_ratio", "ratio"},
	{"tenant.faults", "count"},
	{"tenant.shootdowns", "count"},
	{"tenant.ipis", "count"},
	{"tenant.switches", "count"},
	{"tenant.pool_allocs", "count"},
	{"tenant.pool_failed_allocs", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"bench.trace_valid", "bool"},
}

// outcomeCounts tallies operations: one simulated process each, i.e. one
// organization's machine in the sim workloads and one tenant in tenant-mix.
type outcomeCounts struct {
	attempted, failed int
	problems          []string
}

// fail records a failed check on n operations.
func (c *outcomeCounts) fail(n int, format string, args ...any) {
	c.failed += n
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// benchWorkload is one workload: untraced measures the end-to-end metrics
// for about budget, traced measures the per-layer metrics on a fixed amount
// of work, writing its kept spans to spansPath.
type benchWorkload struct {
	name     string
	untraced func(seed int64, budget time.Duration, c *outcomeCounts) map[string]float64
	traced   func(seed int64, spansPath string, c *outcomeCounts) map[string]float64
}

var workloads = []benchWorkload{
	{"fig9-dense", fig9Dense.untraced, fig9Dense.traced},
	{"replay-sparse", replaySparse.untraced, replaySparse.traced},
	{"populate-cold", populateCold.untraced, populateCold.traced},
	{"tenant-mix", tenantUntraced, tenantTraced},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "measurement time of an untraced run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the untraced run")
	spansDir := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	var selected []benchWorkload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	status := 0
	for _, w := range selected {
		var c outcomeCounts
		var values map[string]float64
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
			path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.csv", w.name, *seed))
			values = w.traced(*seed, path, &c)
		} else {
			values = w.untraced(*seed, time.Duration(*seconds)*time.Second, &c)
		}
		rep, err := newReport(defs, values, c)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		printTable(stderr, w.name, rep, c.problems)
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rep.Correct {
			status = 1
		}
	}
	return status
}

// zeroMetrics returns defs' metrics, all 0: a workload fills in what it
// measures, and a layer it does not reach stays 0.
func zeroMetrics(defs []metricDef) map[string]float64 {
	m := make(map[string]float64, len(defs))
	for _, d := range defs {
		m[d.name] = 0
	}
	return m
}

// newReport checks that values holds exactly the metrics in defs.
func newReport(defs []metricDef, values map[string]float64, c outcomeCounts) (report, error) {
	rep := report{
		Correct:   c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return rep, fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("metric %s is %v", d.name, v)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return rep, fmt.Errorf("%d metrics measured, %d defined", len(values), len(defs))
	}
	return rep, nil
}

// printTable writes the report for people: one metric per line, then the
// operation counts and any failed checks.
func printTable(w io.Writer, name string, rep report, problems []string) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s\n", name)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d, correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	for _, p := range problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}
