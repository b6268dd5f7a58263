// Command mehpt-sim runs one workload under one page-table organization
// through the full trace-driven simulator and prints the translation,
// memory, and cycle statistics. With -trace it replays a recorded trace
// file (either on-disk format, auto-detected) instead of generating the
// workload's statistical stream.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		app      = flag.String("app", "BFS", "workload: BC BFS CC DC DFS GUPS MUMmer PR SSSP SysBench TC")
		orgStr   = flag.String("pt", "mehpt", "page-table organization: radix, ecpt, mehpt")
		scale    = flag.Uint64("scale", 1, "footprint divisor (1 = paper scale)")
		accesses = flag.Uint64("accesses", 5_000_000, "timed memory references")
		thp      = flag.Bool("thp", false, "enable transparent huge pages")
		memGB    = flag.Uint64("mem", 64, "physical memory (GB)")
		fmfi     = flag.Float64("fmfi", 0.7, "ambient fragmentation for allocation pricing")
		seed     = flag.Int64("seed", 1, "simulation seed")
		populate = flag.Bool("populate", true, "pre-fault the touched footprint before the trace")
		traceIn  = flag.String("trace", "", "replay this recorded trace file instead of generating -app's stream")
	)
	flag.Parse()
	if !(*fmfi >= 0 && *fmfi <= 1) {
		fmt.Fprintf(os.Stderr, "mehpt-sim: -fmfi: %v is not in [0, 1]\n", *fmfi)
		os.Exit(2)
	}
	memBytes, err := sim.MemBytes(*memGB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mehpt-sim: -mem: %v\n", err)
		os.Exit(2)
	}

	var org sim.Org
	switch *orgStr {
	case "radix":
		org = sim.Radix
	case "ecpt":
		org = sim.ECPT
	case "mehpt":
		org = sim.MEHPT
	default:
		fmt.Fprintf(os.Stderr, "unknown -pt %q\n", *orgStr)
		os.Exit(2)
	}
	spec, err := workload.ByName(*app, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *traceIn != "" {
		// A replayed trace brings its own footprint; the populate pass only
		// knows the statistical workload's, so it does not apply.
		spec = workload.Spec{Name: "replay:" + *traceIn}
		*populate = false
	}

	m, err := sim.NewMachine(sim.Config{
		Org:      org,
		Workload: spec,
		THP:      *thp,
		Accesses: *accesses,
		Populate: *populate,
		Seed:     *seed,
		MemBytes: memBytes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "machine:", err)
		os.Exit(1)
	}
	m.SetAmbientFMFI(*fmfi)
	var res sim.Result
	if *traceIn != "" {
		f, ferr := os.Open(*traceIn)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "mehpt-sim:", ferr)
			os.Exit(1)
		}
		defer f.Close()
		s, serr := trace.OpenStream(f)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "mehpt-sim:", serr)
			os.Exit(1)
		}
		res, err = m.RunStream(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mehpt-sim:", err)
			os.Exit(1)
		}
	} else {
		res = m.Run()
	}

	fmt.Printf("%s on %v (THP=%v, scale=%d)\n", spec.Name, org, *thp, *scale)
	if res.Failed {
		fmt.Printf("RUN FAILED: %s\n", res.FailReason)
	}
	fmt.Printf("\ntrace: %d accesses\n", res.Accesses)
	fmt.Printf("  translation cycles: %d\n", res.XlatCycles)
	fmt.Printf("  data cycles:        %d\n", res.DataCycles)
	fmt.Printf("  OS fault cycles:    %d\n", res.OSCycles)
	fmt.Printf("\nMMU:\n")
	fmt.Printf("  translations: %d  L1 TLB hits: %d  L2 hits: %d  walks: %d  faults: %d\n",
		res.MMU.Translations, res.MMU.L1Hits, res.MMU.L2Hits, res.MMU.Walks, res.MMU.Faults)
	if res.MMU.Walks > 0 {
		fmt.Printf("  avg walk latency: %.1f cycles\n",
			float64(res.MMU.WalkCycles)/float64(res.MMU.Walks))
	}
	fmt.Printf("\nOS:\n")
	fmt.Printf("  faults: %d (huge: %d)  data-alloc cycles: %d  PT cycles: %d\n",
		res.OS.Faults, res.OS.HugeFaults, res.OS.DataAllocCycles, res.OS.PTCycles)
	fmt.Printf("\npage table:\n")
	fmt.Printf("  peak memory:     %s\n", stats.HumanBytes(res.PTPeakBytes))
	fmt.Printf("  final memory:    %s\n", stats.HumanBytes(res.PTFinalBytes))
	fmt.Printf("  max contiguous:  %s\n", stats.HumanBytes(res.MaxContiguous))
	fmt.Printf("  alloc cycles:    %d\n", res.PTAllocCycles)
	fmt.Printf("  entries moved:   %d\n", res.PTMoves)
	if res.Failed {
		os.Exit(1)
	}
}
