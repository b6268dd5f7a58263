// Command mehpt-inspect populates an ME-HPT with a workload's footprint and
// dumps its internal state: per-way sizes, chunk lists, L2P occupancy,
// resize history, and the re-insertion distribution — the raw material of
// the paper's Figures 11-16.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		app   = flag.String("app", "GUPS", "workload to populate with")
		scale = flag.Uint64("scale", 1, "footprint divisor")
		thp   = flag.Bool("thp", false, "enable transparent huge pages")
		memGB = flag.Uint64("mem", 64, "physical memory (GB)")
		seed  = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	memBytes, err := sim.MemBytes(*memGB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mehpt-inspect: -mem: %v\n", err)
		os.Exit(2)
	}
	spec, err := workload.ByName(*app, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	m, err := sim.NewMachine(sim.Config{
		Org: sim.MEHPT, Workload: spec, THP: *thp, Populate: true,
		Seed: *seed, MemBytes: memBytes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "machine:", err)
		os.Exit(1)
	}
	m.SetAmbientFMFI(0.7)
	res := m.Run()
	if res.Failed {
		fmt.Printf("population FAILED: %s\n", res.FailReason)
		os.Exit(1)
	}
	pt := res.MEHPT

	fmt.Printf("ME-HPT state after populating %s (touched %s, THP=%v)\n\n",
		spec.Name, stats.HumanBytes(spec.TouchedBytes), *thp)
	for _, s := range addr.Sizes() {
		t := pt.Table(s)
		if t == nil { // size tables are created lazily on first mapping
			fmt.Printf("[%v page table] never instantiated\n\n", s)
			continue
		}
		st := t.Stats()
		fmt.Printf("[%v page table]\n", s)
		fmt.Printf("  clustered entries: %d\n", t.Len())
		sizes := t.WaySizes()
		chunks := t.WayChunkBytes()
		for w := range sizes {
			fmt.Printf("  way %d: %8s (%d slots), chunk size %s, %d upsizes\n",
				w, stats.HumanBytes(sizes[w]*64), sizes[w],
				stats.HumanBytes(chunks[w]), st.UpsizesPerWay[w])
		}
		fmt.Printf("  footprint: %s  transitions: %d  downsizes: %d\n",
			stats.HumanBytes(t.FootprintBytes()), st.Transitions, st.Downsizes)
		if tot := st.UpsizeMoved + st.UpsizeStayed; tot > 0 {
			fmt.Printf("  in-place rehash: %d moved / %d stayed (%.2f moved)\n",
				st.UpsizeMoved, st.UpsizeStayed, float64(st.UpsizeMoved)/float64(tot))
		}
		if st.Reinsertions.Total() > 0 {
			fmt.Printf("  re-insertions: mean %.2f, dist %s\n",
				st.Reinsertions.Mean(), st.Reinsertions.String())
		}
		fmt.Println()
	}
	l2p := pt.L2P()
	fmt.Printf("[L2P table]\n")
	fmt.Printf("  capacity: %d entries (%.2fKB of MMU state)\n",
		l2p.TotalEntries(), l2p.SizeBytes()/1024)
	fmt.Printf("  in use: %d  peak: %d\n", l2p.TotalUsed(), l2p.PeakUsed())
	for w := 0; w < l2p.Ways(); w++ {
		fmt.Printf("  way %d: 4KB=%d 2MB=%d 1GB=%d (limits %d/%d/%d)\n", w,
			l2p.Used(w, addr.Page4K), l2p.Used(w, addr.Page2M), l2p.Used(w, addr.Page1G),
			l2p.Limit(w, addr.Page4K), l2p.Limit(w, addr.Page2M), l2p.Limit(w, addr.Page1G))
	}
	fmt.Printf("\n[totals] PT peak %s, max contiguous alloc %s\n",
		stats.HumanBytes(res.PTPeakBytes), stats.HumanBytes(res.MaxContiguous))
}
