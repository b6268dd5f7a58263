// Command mehpt-trace records workload or graph-kernel address traces to
// compact trace files, converts between the two on-disk formats, and
// replays them through the simulator — the standard record-once/replay-many
// methodology of trace-driven evaluation.
//
// Two formats exist (see internal/trace): "varint", the delta-compressed
// legacy format optimizing bytes per access, and "binary", the fixed-width
// format optimizing batched decode (and the only one carrying per-process
// sections for the multi-tenant machine). Replay auto-detects the format.
//
//	mehpt-trace record -app BFS -scale 64 -accesses 1000000 -o bfs.trc
//	mehpt-trace record -kernel PR -nodes 100000 -format binary -o pr.btrc
//	mehpt-trace record -tenant -procs 8 -accesses 4096 -o tenant.btrc
//	mehpt-trace convert -i bfs.trc -o bfs.btrc
//	mehpt-trace replay -pt mehpt -i bfs.btrc
package main

import (
	"flag"
	"fmt"
	"os"

	"io"

	"repro/internal/addr"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "convert":
		convert(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mehpt-trace record|convert|replay [flags]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		app      = fs.String("app", "", "statistical workload to record (BC BFS ... TC)")
		kernel   = fs.String("kernel", "", "graph kernel to record instead (BC BFS CC DC DFS PR SSSP TC)")
		tenantM  = fs.Bool("tenant", false, "record per-process multi-tenant streams (sectioned binary; see -procs)")
		procs    = fs.Int("procs", 8, "process count for -tenant")
		nodes    = fs.Uint64("nodes", 100_000, "graph nodes for -kernel")
		degree   = fs.Int("degree", 16, "graph degree for -kernel")
		scale    = fs.Uint64("scale", 64, "workload scale for -app (footprint divisor for -tenant)")
		accesses = fs.Uint64("accesses", 1_000_000, "trace length for -app (per-process budget for -tenant)")
		seed     = fs.Int64("seed", 1, "seed")
		format   = fs.String("format", "varint", "output format: varint (delta-compressed) or binary (fixed-width, batch-decodable)")
		out      = fs.String("o", "out.trc", "output file")
	)
	fs.Parse(args) //mehpt:allow errwrap -- ExitOnError flagset exits on bad flags
	if *format != "varint" && *format != "binary" {
		fatal(fmt.Errorf("unknown -format %q (want varint or binary)", *format))
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	var n uint64
	switch {
	case *tenantM:
		// Per-process streams only exist in the sectioned binary format.
		cfg := tenant.Config{Processes: *procs, Scale: *scale, AccessesPerProc: *accesses, Seed: *seed}
		if err := tenant.RecordTraces(cfg, f); err != nil {
			fatal(err)
		}
		n = uint64(*procs) * *accesses
	case *kernel != "":
		g := graph.GenerateUniform(*nodes, *degree, *seed, workload.BaseVA)
		n, err = recordVAs(f, *format, func(emit func(addr.VirtAddr)) {
			if _, kerr := g.Run(*kernel, emit); kerr != nil {
				err = kerr
			}
		})
		if err != nil {
			fatal(err)
		}
	case *app != "":
		spec, serr := workload.ByName(*app, *scale)
		if serr != nil {
			fatal(serr)
		}
		tr := spec.NewTrace(*seed, *accesses)
		n, err = recordVAs(f, *format, func(emit func(addr.VirtAddr)) {
			for {
				va, ok := tr.Next()
				if !ok {
					return
				}
				emit(va)
			}
		})
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("need -app, -kernel, or -tenant"))
	}
	info, _ := f.Stat() //mehpt:allow errwrap -- stat on a just-written file; size 0 only garbles the summary line
	fmt.Printf("recorded %d accesses to %s (%s, %.2f bytes/access)\n",
		n, *out, stats.HumanBytes(uint64(info.Size())),
		float64(info.Size())/float64(n))
}

// recordVAs writes the generated stream in the requested format. The binary
// header carries the record count up front, so that path buffers the stream
// before writing; varint streams straight through.
func recordVAs(f *os.File, format string, gen func(emit func(addr.VirtAddr))) (uint64, error) {
	if format == "varint" {
		return trace.Record(f, gen)
	}
	var vas []addr.VirtAddr
	gen(func(va addr.VirtAddr) { vas = append(vas, va) })
	return uint64(len(vas)), trace.WriteBinaryVAs(f, vas)
}

func convert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	var (
		in = fs.String("i", "", "input trace (either format, auto-detected)")
		to = fs.String("to", "", "output format: varint or binary (default: the other format)")
		o  = fs.String("o", "", "output file")
	)
	fs.Parse(args) //mehpt:allow errwrap -- ExitOnError flagset exits on bad flags
	if *in == "" || *o == "" {
		fatal(fmt.Errorf("convert needs -i and -o"))
	}

	src, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer src.Close()
	s, err := trace.OpenStream(src)
	if err != nil {
		fatal(err)
	}
	from := "varint"
	if _, ok := s.(*trace.BinaryReader); ok {
		from = "binary"
	}
	if *to == "" {
		if from == "varint" {
			*to = "binary"
		} else {
			*to = "varint"
		}
	}

	dst, err := os.Create(*o)
	if err != nil {
		fatal(err)
	}
	defer dst.Close()

	var n uint64
	switch *to {
	case "binary":
		if br, ok := s.(*trace.BinaryReader); ok && len(br.Sections()) > 0 {
			// Re-encode preserving the per-process section table.
			if _, err := src.Seek(0, 0); err != nil {
				fatal(err)
			}
			secs, err := trace.ReadSections(src)
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteBinary(dst, secs); err != nil {
				fatal(err)
			}
			for _, sec := range secs {
				n += uint64(len(sec.VAs))
			}
		} else {
			vas, err := drain(s)
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteBinaryVAs(dst, vas); err != nil {
				fatal(err)
			}
			n = uint64(len(vas))
		}
	case "varint":
		if br, ok := s.(*trace.BinaryReader); ok && len(br.Sections()) > 0 {
			fmt.Fprintln(os.Stderr, "mehpt-trace: note: varint traces carry no section table; sections are concatenated in table order")
		}
		n, err = trace.Record(dst, func(emit func(addr.VirtAddr)) {
			var buf [256]addr.VirtAddr
			for {
				k, nerr := s.NextBatch(buf[:])
				for _, va := range buf[:k] {
					emit(va)
				}
				if nerr != nil {
					if nerr != io.EOF {
						err = nerr
					}
					return
				}
			}
		})
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown -to %q (want varint or binary)", *to))
	}
	fmt.Printf("converted %s (%s) -> %s (%s), %d accesses\n", *in, from, *o, *to, n)
}

// drain reads a whole stream into memory (the binary writer needs the
// record count up front).
func drain(s trace.Stream) ([]addr.VirtAddr, error) {
	var vas []addr.VirtAddr
	var buf [256]addr.VirtAddr
	for {
		n, err := s.NextBatch(buf[:])
		vas = append(vas, buf[:n]...)
		if err != nil {
			if err == io.EOF {
				return vas, nil
			}
			return nil, err
		}
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		in     = fs.String("i", "out.trc", "trace file (either format, auto-detected)")
		orgStr = fs.String("pt", "mehpt", "page-table organization: radix, ecpt, mehpt")
		memGB  = fs.Uint64("mem", 8, "physical memory (GB)")
		seed   = fs.Int64("seed", 1, "seed")
	)
	fs.Parse(args) //mehpt:allow errwrap -- ExitOnError flagset exits on bad flags

	var org sim.Org
	switch *orgStr {
	case "radix":
		org = sim.Radix
	case "ecpt":
		org = sim.ECPT
	case "mehpt":
		org = sim.MEHPT
	default:
		fatal(fmt.Errorf("unknown -pt %q", *orgStr))
	}
	memBytes, err := sim.MemBytes(*memGB)
	if err != nil {
		fatal(fmt.Errorf("-mem: %w", err))
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	m, err := sim.NewMachine(sim.Config{
		Org: org, Workload: workload.Spec{Name: "replay"},
		Seed: *seed, MemBytes: memBytes,
	})
	if err != nil {
		fatal(err)
	}
	m.SetAmbientFMFI(0.7)
	s, err := trace.OpenStream(f)
	if err != nil {
		fatal(err)
	}
	res, err := m.RunStream(s)
	if err != nil {
		fatal(err)
	}
	if res.Failed {
		fatal(fmt.Errorf("replay failed: %s", res.FailReason))
	}
	fmt.Printf("%v: %d accesses, %d cycles (xlat %d, data %d, os %d)\n",
		org, res.Accesses, res.Cycles, res.XlatCycles, res.DataCycles, res.OSCycles)
	fmt.Printf("TLB walks: %d (%.1f%%), faults: %d, PT peak %s, max contig %s\n",
		res.MMU.Walks, 100*float64(res.MMU.Walks)/float64(res.MMU.Translations),
		res.OS.Faults, stats.HumanBytes(res.PTPeakBytes), stats.HumanBytes(res.MaxContiguous))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mehpt-trace:", err)
	os.Exit(1)
}
