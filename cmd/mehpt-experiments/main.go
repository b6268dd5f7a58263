// Command mehpt-experiments regenerates every table and figure in the
// paper's evaluation. Run with -exp all (default) or a comma-separated
// subset: table1,table2,alloccost,frag,fivelevel,virt,multitenant,fig8,fig9,
// fig10,fig11,fig12,fig13,fig14,fig15,fig16,sec9,ablation.
// sec9 is Section IX's Level Hashing comparison; ablation changes one ME-HPT
// mechanism per row.
//
// -exp multitenant runs the sharded multi-core machine over the -cores ×
// -processes matrix (comma lists) for every page-table organization. The
// machine's canonical fingerprint depends only on the organization, the
// process count, and the seed — never on -cores or -parallel — and the
// driver exits non-zero if any cell violates that contract.
//
// -scale 1 is the paper's full configuration (takes minutes); larger scales
// divide every footprint for quick looks.
//
// The run matrix of each experiment fans out over -parallel workers
// (default: GOMAXPROCS). Results are bit-identical at every worker count:
// each run derives its RNG seed from its identity, so -parallel only
// changes wall-clock time, never numbers. -progress prints one line per
// completed run with its wall-clock duration; -json writes every driver's
// typed rows to a machine-readable file.
//
// -inject attaches a deterministic allocation-failure policy (see
// internal/inject) to every run's physical allocator, exercising the
// degradation ladder under memory pressure; failed jobs are summarized per
// job at the end (and under "job_failures" in -json output) and make the
// process exit non-zero. -fail-fast aborts the remaining jobs of a matrix
// after the first failure (at the cost of run-to-run determinism).
//
// Crash consistency and recovery (see DESIGN.md):
//
//   - -checkpoint writes an atomic, checksummed snapshot of every
//     multitenant machine after each completed round, one file per job
//     (<path>.<org>.p<procs>.c<cores>); -resume continues each job from its
//     snapshot when one exists. A resumed run's fingerprint is bit-identical
//     to the uninterrupted run's.
//   - -chaos runs the deterministic kill → recover → fingerprint-compare
//     harness at the given kill plan (e.g. "remap.after:2", see
//     inject.ParseKill) for every multitenant cell; a recovery that does not
//     reproduce the baseline fingerprint exits non-zero. Requires
//     -checkpoint.
//   - -scrub runs the cross-layer invariant scrubber (internal/scrub) on
//     every finished or recovered machine; any violation exits non-zero.
//   - -timeout bounds the whole suite: once it expires, multitenant
//     machines stop at their next round boundary, flush a final checkpoint,
//     and the partial summary is printed before exiting with code 3.
//
// Exit codes: 0 success, 1 failures (jobs, determinism, chaos, or scrub),
// 2 usage, 3 suite timeout with partial results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/experiments"
	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiments to run, or 'all' (table1,table2,alloccost,frag,fivelevel,virt,multitenant,fig8..fig16,sec9,ablation)")
		scale      = flag.Uint64("scale", 1, "footprint divisor (1 = paper's full scale)")
		accesses   = flag.Uint64("accesses", 30_000_000, "timed trace length for fig9")
		memGB      = flag.Uint64("mem", 64, "simulated physical memory (GB)")
		fmfi       = flag.Float64("fmfi", 0.7, "ambient memory fragmentation (FMFI)")
		seed       = flag.Int64("seed", 42, "simulation seed")
		parallel   = flag.Int("parallel", 0, "worker count for independent runs (0 = GOMAXPROCS, 1 = serial)")
		progress   = flag.Bool("progress", true, "print per-run wall-clock timing as the matrix executes")
		jsonOut    = flag.String("json", "", "write machine-readable results (all experiment rows) to this file")
		injectSpec = flag.String("inject", "", "fault-injection policy for every run's allocator, e.g. 'nth=50', 'rate=0.01+pressure=0.9' (see internal/inject)")
		coresFlag  = flag.String("cores", "1,2,4,8", "comma-separated simulated core counts for the multitenant matrix")
		procsFlag  = flag.String("processes", "8", "comma-separated simulated process counts for the multitenant matrix")
		failFast   = flag.Bool("fail-fast", false, "abort each experiment's remaining jobs after the first failure (forfeits worker-count determinism)")
		ckptPath   = flag.String("checkpoint", "", "base path for per-round multitenant checkpoints (one file per job: <path>.<org>.p<procs>.c<cores>)")
		resume     = flag.Bool("resume", false, "resume multitenant jobs from their -checkpoint snapshots when present")
		scrubFlag  = flag.Bool("scrub", false, "run the cross-layer invariant scrubber on every multitenant machine; violations exit non-zero")
		chaosPlan  = flag.String("chaos", "", "kill plan for the multitenant crash-consistency harness, e.g. 'remap.after:2' (see inject.ParseKill); requires -checkpoint")
		tenantTrc  = flag.String("tenant-trace", "", "base path for recorded multitenant access streams (<path>.<org>.p<procs>.btrc); cells record once, then replay")
		timeout    = flag.Duration("timeout", 0, "suite deadline; on expiry machines stop at a round boundary, flush checkpoints, and the process exits 3")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the suite run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof allocation profile (alloc_space) to this file at exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace of the suite run to this file")
	)
	flag.Parse()

	// Profiling hooks. The deferred stops run through exitf below, so they
	// fire on every exit path, including failure summaries.
	var atExit []func()
	exitf := func(code int) {
		for i := len(atExit) - 1; i >= 0; i-- {
			atExit[i]()
		}
		os.Exit(code)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mehpt-experiments: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mehpt-experiments: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		atExit = append(atExit, func() { pprof.StopCPUProfile(); f.Close() }) //mehpt:allow errwrap -- close at exit; profile loss is visible to the operator
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mehpt-experiments: -trace: %v\n", err)
			os.Exit(2)
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "mehpt-experiments: -trace: %v\n", err)
			os.Exit(2)
		}
		atExit = append(atExit, func() { trace.Stop(); f.Close() }) //mehpt:allow errwrap -- close at exit; trace loss is visible to the operator
	}
	if *memProfile != "" {
		path := *memProfile
		atExit = append(atExit, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mehpt-experiments: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "mehpt-experiments: -memprofile: %v\n", err)
			}
		})
	}

	if !(*fmfi >= 0 && *fmfi <= 1) {
		fmt.Fprintf(os.Stderr, "mehpt-experiments: -fmfi: %v is not in [0, 1]\n", *fmfi)
		exitf(2)
	}
	memBytes, err := sim.MemBytes(*memGB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mehpt-experiments: -mem: %v\n", err)
		exitf(2)
	}
	if err := workload.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "mehpt-experiments: -scale: %v\n", err)
		exitf(2)
	}
	if *injectSpec != "" {
		// Validate the spec up front so a typo fails before minutes of runs.
		if _, err := inject.Parse(*injectSpec, 0); err != nil {
			fmt.Fprintf(os.Stderr, "mehpt-experiments: -inject: %v\n", err)
			exitf(2)
		}
	}
	if *chaosPlan != "" {
		if _, err := inject.ParseKill(*chaosPlan); err != nil {
			fmt.Fprintf(os.Stderr, "mehpt-experiments: -chaos: %v\n", err)
			exitf(2)
		}
		if *ckptPath == "" {
			fmt.Fprintln(os.Stderr, "mehpt-experiments: -chaos requires -checkpoint (the recovery snapshot path)")
			exitf(2)
		}
	}
	if *resume && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "mehpt-experiments: -resume requires -checkpoint")
		exitf(2)
	}
	suiteCtx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		suiteCtx, cancel = context.WithTimeout(suiteCtx, *timeout)
		atExit = append(atExit, cancel)
	}

	// Axis lists for the multitenant matrix.
	parseAxis := func(name, spec string) []int {
		var out []int
		for _, s := range strings.Split(spec, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "mehpt-experiments: -%s: %q is not a positive integer\n", name, s)
				exitf(2)
			}
			out = append(out, n)
		}
		return out
	}
	coreAxis := parseAxis("cores", *coresFlag)
	procAxis := parseAxis("processes", *procsFlag)

	failures := &experiments.FailureLog{}
	o := experiments.DefaultOptions()
	o.Scale = *scale
	o.TimedAccesses = *accesses
	o.MemBytes = memBytes
	o.FMFI = *fmfi
	o.Seed = *seed
	o.Parallel = *parallel
	o.Inject = *injectSpec
	o.FailFast = *failFast
	o.Failures = failures
	o.Checkpoint = *ckptPath
	o.Resume = *resume
	o.Scrub = *scrubFlag
	o.Chaos = *chaosPlan
	o.TenantTrace = *tenantTrc
	o.Ctx = suiteCtx
	var tally atomic.Uint64
	o.AccessTally = &tally
	meter := stats.NewAllocMeter()
	suiteStart := time.Now()
	if *progress {
		// Called concurrently from the worker pool; a single Printf is
		// atomic enough for line-oriented progress output.
		o.Progress = func(done, total int, label string, elapsed time.Duration, accesses uint64) {
			rate := ""
			if accesses > 0 && elapsed > 0 {
				rate = fmt.Sprintf("%8.2fM acc/s",
					float64(accesses)/elapsed.Seconds()/1e6)
			}
			fmt.Printf("  [%3d/%3d] %-32s %10s %s\n", done, total, label,
				elapsed.Round(time.Millisecond), rate)
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	delete(want, "all")
	var rec stats.Recorder
	run := func(name string, f func() any) {
		known := want[name]
		delete(want, name) // leftovers are unknown names; reported after the suite
		if !all && !known {
			return
		}
		start := time.Now()
		o.Name = name // labels this experiment's failure records (f reads o)
		rows := f()
		if rows != nil {
			rec.Record(name, rows)
		}
		fmt.Printf("[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	w := os.Stdout
	fmt.Printf("ME-HPT experiment suite (scale=%d, fmfi=%.1f, mem=%dGB, parallel=%d)\n\n",
		o.Scale, o.FMFI, o.MemBytes/addr.GB, *parallel)

	run("table2", func() any {
		rows := experiments.Table2()
		experiments.FprintTable2(w, rows)
		return rows
	})
	run("fivelevel", func() any {
		mo := o
		if mo.Scale == 1 {
			mo.Scale = 8 // walk-latency averages converge fast; keep it quick
		}
		mo.TimedAccesses = 2_000_000
		rows := experiments.FiveLevelMotivation(mo)
		experiments.FprintFiveLevel(w, rows)
		return rows
	})
	run("virt", func() any {
		rows := experiments.Virtualization(o, 256)
		experiments.FprintVirtualization(w, rows)
		return rows
	})
	run("alloccost", func() any {
		rows := experiments.AllocCost(o.FMFI)
		experiments.FprintAllocCost(w, o.FMFI, rows)
		return rows
	})
	run("frag", func() any {
		rows := experiments.RunFragmentationStress(o.MemBytes/8, o.Seed)
		experiments.FprintFragmentationStress(w, rows)
		return rows
	})
	run("multitenant", func() any {
		rows := experiments.MultiTenant(o, coreAxis, procAxis)
		experiments.FprintMultiTenant(w, rows)
		if bad := experiments.MultiTenantFingerprintsAgree(rows); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "mehpt-experiments: multitenant determinism violation at %s\n",
				strings.Join(bad, ", "))
			exitf(1)
		}
		if bad := experiments.MultiTenantChaosOK(rows); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "mehpt-experiments: crash-consistency violation (recovery fingerprint diverges) at %s\n",
				strings.Join(bad, ", "))
			exitf(1)
		}
		if bad := experiments.MultiTenantScrubClean(rows); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "mehpt-experiments: invariant scrub violation at %s\n",
				strings.Join(bad, ", "))
			exitf(1)
		}
		return rows
	})
	run("table1", func() any {
		rows := experiments.Table1(o)
		experiments.FprintTable1(w, rows)
		return rows
	})
	run("fig8", func() any {
		rows := experiments.Figure8(o)
		experiments.FprintFigure8(w, rows)
		return rows
	})
	run("fig10", func() any {
		rows := experiments.Figure10(o)
		experiments.FprintFigure10(w, rows)
		return rows
	})
	run("fig11", func() any {
		rows := experiments.Figure11(o)
		experiments.FprintFigure11(w, rows)
		return rows
	})
	run("fig12", func() any {
		rows := experiments.Figure12(o)
		experiments.FprintFigure12(w, rows)
		return rows
	})
	run("fig13", func() any {
		rows := experiments.Figure13(o)
		experiments.FprintFigure13(w, rows)
		return rows
	})
	run("fig14", func() any {
		rows := experiments.Figure14(o)
		experiments.FprintFigure14(w, rows)
		return rows
	})
	run("fig15", func() any {
		rows := experiments.Figure15(o)
		experiments.FprintFigure15(w, rows)
		return rows
	})
	run("fig16", func() any {
		rows, mean := experiments.Figure16(o)
		experiments.FprintFigure16(w, rows, mean)
		return struct {
			Rows []experiments.Figure16Row `json:"rows"`
			Mean float64                   `json:"mean"`
		}{rows, mean}
	})
	run("sec9", func() any {
		rows := experiments.SectionIX(o)
		experiments.FprintSectionIX(w, rows)
		return rows
	})
	run("ablation", func() any {
		rows := experiments.Ablation(o)
		experiments.FprintAblation(w, rows)
		return rows
	})
	run("fig9", func() any {
		rows := experiments.Figure9(o)
		experiments.FprintFigure9(w, rows)
		return rows
	})

	if len(want) > 0 {
		var unknown []string
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "mehpt-experiments: unknown experiment(s): %s (see -exp in -help)\n",
			strings.Join(unknown, ", "))
		exitf(1)
	}

	if failures.Len() > 0 {
		rec.Record("job_failures", failures.Failures())
	}

	// Suite-level throughput and allocation meter. The alloc counter is
	// process-wide (runtime/metrics), so it includes table construction and
	// reporting — a coarse regression signal, with the per-path precision
	// left to the AllocsPerRun test guards. Not recorded into -json: its
	// values are machine-dependent and the JSON output is fingerprinted.
	if total := tally.Load(); total > 0 {
		elapsed := time.Since(suiteStart)
		fmt.Printf("simulated %d accesses in %s (%.2fM acc/s, %.2f heap allocs/access)\n",
			total, elapsed.Round(time.Millisecond),
			float64(total)/elapsed.Seconds()/1e6, meter.PerAccess(total))
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mehpt-experiments: %v\n", err)
			exitf(1)
		}
		if err := rec.WriteJSON(f); err == nil {
			err = f.Close()
			if err == nil {
				fmt.Printf("wrote JSON results to %s\n", *jsonOut)
			}
		} else {
			f.Close() //mehpt:allow errwrap -- already failing; the write error below is the one reported
			fmt.Fprintf(os.Stderr, "mehpt-experiments: writing %s: %v\n", *jsonOut, err)
			exitf(1)
		}
	}

	if n := failures.Len(); n > 0 {
		fmt.Fprintf(os.Stderr, "\n%d job(s) failed:\n", n)
		for _, jf := range failures.Failures() {
			kind := ""
			if jf.Panicked {
				kind = " [panic]"
			}
			fmt.Fprintf(os.Stderr, "  %s: %s%s: %s\n", jf.Experiment, jf.Job, kind, jf.Reason)
		}
		exitf(1)
	}
	if errors.Is(suiteCtx.Err(), context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "mehpt-experiments: suite deadline (%v) expired; partial results above, checkpoints flushed\n", *timeout)
		exitf(3)
	}
	exitf(0)
}
