package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/addr"
	"repro/internal/ecpt"
	"repro/internal/mehpt"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ambientFMFI prices allocations at the paper's fragmentation level without
// shredding memory, as the experiment drivers do.
const ambientFMFI = 0.7

// orgs are run one after another, in this order, in every round.
var orgs = []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT}

var orgKeys = map[sim.Org]string{sim.Radix: "radix", sim.ECPT: "ecpt", sim.MEHPT: "mehpt"}

// simWorkload is a workload over sim.Machine. Its set-up is the experiment
// drivers' job shape (NewMachine, SetAmbientFMFI, and for prepop a
// populate-only Run); its timed phase is a generated trace (RunBatches), a
// recorded one (RunStream), or, without prepop, the populate itself.
type simWorkload struct {
	name     string
	app      string
	scale    uint64
	prepop   bool
	accesses uint64 // timed references per organization; 0 when populate is timed
	replay   bool
}

var (
	// Mostly TLB hits: host time goes to the generator and the batched TLB
	// and cache paths.
	fig9Dense = simWorkload{name: "fig9-dense", app: "BFS", scale: 16, prepop: true, accesses: 1_500_000}
	// Mostly full TLB misses: host time goes to walks and per-walk cache
	// accesses; the trace decoder replaces the generator.
	replaySparse = simWorkload{name: "replay-sparse", app: "GUPS", scale: 16, prepop: true, accesses: 400_000, replay: true}
	// Every reference is a first-touch fault: the page tables' write side.
	populateCold = simWorkload{name: "populate-cold", app: "GUPS", scale: 2}
)

// simInputs are one seed's generated inputs, made before anything is timed.
type simInputs struct {
	spec      workload.Spec
	seed      int64
	traceSeed int64
	pages     uint64 // touched pages: the faults a full populate takes
	buf       []byte // the recorded MEHPTBT1 trace, for replay
}

func (w simWorkload) inputs(seed int64) (*simInputs, error) {
	spec, err := workload.ByName(w.app, w.scale)
	if err != nil {
		return nil, err
	}
	in := &simInputs{spec: spec, seed: seed, traceSeed: runner.DeriveSubSeed(seed, w.name, 0)}
	spec.TouchedPageVAs(func(addr.VirtAddr) bool { in.pages++; return true })
	if !w.replay {
		return in, nil
	}
	vas := make([]addr.VirtAddr, 0, w.accesses)
	tr := spec.NewTrace(in.traceSeed, w.accesses)
	for va, ok := tr.Next(); ok; va, ok = tr.Next() {
		vas = append(vas, va)
	}
	var b bytes.Buffer
	if err := trace.WriteBinaryVAs(&b, vas); err != nil {
		return nil, fmt.Errorf("recording trace: %w", err)
	}
	in.buf = b.Bytes()
	if err := checkDecodes(in.buf, vas); err != nil {
		return nil, err
	}
	return in, nil
}

// checkDecodes confirms that buf decodes back to exactly want.
func checkDecodes(buf []byte, want []addr.VirtAddr) error {
	rd, err := trace.NewBinaryReader(bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("recorded trace: %w", err)
	}
	var batch [64]addr.VirtAddr
	got := 0
	for {
		n, err := rd.NextBatch(batch[:])
		for i, va := range batch[:n] {
			if got+i >= len(want) || va != want[got+i] {
				return fmt.Errorf("recorded trace differs from the generated one at record %d", got+i)
			}
		}
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("recorded trace: %w", err)
		}
	}
	if got != len(want) {
		return fmt.Errorf("recorded trace decodes to %d records, want %d", got, len(want))
	}
	return nil
}

// config is the experiment drivers' job config (experiments.Options.exec)
// with the machine seed derived from the benchmark seed.
func (w simWorkload) config(in *simInputs, org sim.Org) sim.Config {
	return sim.Config{Org: org, Workload: in.spec, Populate: true, FreeFraction: 0.35,
		Seed: runner.DeriveSeed(in.seed, in.spec.Name, org.String(), false, "")}
}

// refs is the number of references one organization's timed phase makes.
func (w simWorkload) refs(in *simInputs) uint64 {
	if w.accesses > 0 {
		return w.accesses
	}
	return in.pages
}

// orgRun is one organization's untraced operation.
type orgRun struct {
	setup, timed time.Duration
	allocs       uint64 // heap objects allocated from construction to the end of the timed phase
	heap         int64  // live heap the machine holds after the timed phase
	out          simOutcome
}

// runOrg builds, sets up and runs one organization's sim.Machine and checks
// its outputs.
func (w simWorkload) runOrg(in *simInputs, org sim.Org) (orgRun, error) {
	var r orgRun
	var rd *trace.BinaryReader
	var tr *workload.Trace
	switch {
	case w.replay:
		var err error
		if rd, err = trace.NewBinaryReader(bytes.NewReader(in.buf)); err != nil {
			return r, err
		}
	case w.accesses > 0:
		tr = in.spec.NewTrace(in.traceSeed, w.accesses)
	}
	runtime.GC()
	g0 := readGo()
	c0 := cpuNow()
	m, err := sim.NewMachine(w.config(in, org))
	if err != nil {
		return r, err
	}
	m.SetAmbientFMFI(ambientFMFI)
	if w.prepop {
		if pre := m.Run(); pre.Failed {
			return r, fmt.Errorf("populate: %s", pre.FailReason)
		}
	}
	r.setup = cpuNow() - c0
	runtime.GC() // the timed phase starts with no set-up garbage pending
	c1 := cpuNow()
	var res sim.Result
	switch {
	case rd != nil:
		res, err = m.RunStream(rd)
	case tr != nil:
		res = m.RunBatches(tr.NextBatch)
	default:
		res = m.Run()
	}
	r.timed = cpuNow() - c1
	r.allocs = readGo().allocs - g0.allocs
	runtime.GC()
	r.heap = int64(readGo().live) - int64(g0.live)
	r.out = outcomeOf(res)
	switch {
	case err != nil:
		return r, fmt.Errorf("replay: %w", err)
	case res.Failed:
		return r, fmt.Errorf("run failed: %s", res.FailReason)
	case w.accesses > 0 && res.Accesses != w.accesses:
		return r, fmt.Errorf("%d references simulated, want %d", res.Accesses, w.accesses)
	case w.accesses == 0 && res.OS.Faults != in.pages:
		return r, fmt.Errorf("%d faults, want one per touched page (%d)", res.OS.Faults, in.pages)
	}
	if w.accesses == 0 {
		if err := checkMapped(m, in.spec); err != nil {
			return r, err
		}
	}
	runtime.KeepAlive(m)
	return r, nil
}

// checkMapped confirms that every touched page translates.
func checkMapped(m *sim.Machine, spec workload.Spec) error {
	var missing uint64
	var first addr.VirtAddr
	spec.TouchedPageVAs(func(va addr.VirtAddr) bool {
		if _, ok := m.Table().Translate(va); !ok {
			if missing == 0 {
				first = va
			}
			missing++
		}
		return true
	})
	if missing > 0 {
		return fmt.Errorf("%d touched pages do not translate, first %#x", missing, uint64(first))
	}
	return nil
}

// untraced runs rounds of the three organizations until budget is spent and
// reports the end-to-end metrics: medians over rounds for host figures, and
// the simulated figures, which every round must repeat exactly.
func (w simWorkload) untraced(seed int64, budget time.Duration, c *outcomeCounts) map[string]float64 {
	vals := zeroMetrics(endToEnd)
	in, err := w.inputs(seed)
	if err != nil {
		c.attempted += len(orgs)
		c.fail(len(orgs), "%s inputs: %v", w.name, err)
		return vals
	}
	var samples roundSamples
	first := map[sim.Org]simOutcome{}
	measureRounds(budget, func() bool {
		var s roundSample
		for _, org := range orgs {
			c.attempted++
			r, err := w.runOrg(in, org)
			if err != nil {
				c.fail(1, "%v: %v", org, err)
				return false
			}
			if f, ok := first[org]; !ok {
				first[org] = r.out
			} else if f != r.out {
				c.fail(1, "%v: simulated results differ between repetitions of seed %d", org, seed)
				return false
			}
			s.add(r.setup, r.timed, w.refs(in), r.allocs, r.heap)
		}
		samples = append(samples, s)
		return true
	})
	samples.fill(vals)
	for org, o := range first {
		k := orgKeys[org]
		vals["sim_cycles_per_access."+k] = ratio(float64(o.Cycles), float64(w.refs(in)))
		vals["pt_peak_kb."+k] = float64(o.PTPeakBytes) / 1024
		if org != sim.Radix {
			vals["max_contig_kb."+k] = float64(o.MaxContiguous) / 1024
		}
	}
	return vals
}

// traced runs each organization once untraced through sim.Machine and once
// through the traced pipeline, checks that both simulated the same thing,
// and reports the per-layer metrics of the traced runs.
func (w simWorkload) traced(seed int64, spansPath string, c *outcomeCounts) map[string]float64 {
	vals := zeroMetrics(perLayer)
	in, err := w.inputs(seed)
	if err != nil {
		c.attempted += len(orgs)
		c.fail(len(orgs), "%s inputs: %v", w.name, err)
		return vals
	}
	tr := newTracer()
	var lc layerCounts
	var gc goDelta
	var untracedCPU, tracedCPU time.Duration
	valid := true
	for i, org := range orgs {
		c.attempted++
		ref, err := w.runOrg(in, org)
		if err != nil {
			c.fail(1, "%v untraced: %v", org, err)
			valid = false
			continue
		}
		tr.setRun(uint32(i + 1))
		got, cpu, err := w.runPipeline(in, org, tr, &lc, &gc)
		if err != nil {
			c.fail(1, "%v traced: %v", org, err)
			valid = false
			continue
		}
		if got != ref.out {
			c.fail(1, "%v: traced pipeline simulated %+v, sim.Machine %+v", org, got, ref.out)
			valid = false
		}
		untracedCPU += ref.timed
		tracedCPU += cpu
	}
	lc.fill(vals, tr)
	vals["go.gc_cpu_share"] = gc.share()
	vals["bench.trace_overhead"] = ratio(float64(tracedCPU), float64(untracedCPU))
	if valid {
		vals["bench.trace_valid"] = 1
	}
	if err := tr.writeSpans(spansPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	return vals
}

// runPipeline runs one organization through the traced pipeline, adding its
// layer counts to lc and the timed phase's Go runtime activity to gc. It
// returns the timed phase's simulated outcome and CPU time.
func (w simWorkload) runPipeline(in *simInputs, org sim.Org, tr *tracer, lc *layerCounts, gc *goDelta) (simOutcome, time.Duration, error) {
	var next func([]addr.VirtAddr) (int, error)
	srcSpan := spGen
	switch {
	case w.replay:
		rd, err := trace.NewBinaryReader(bytes.NewReader(in.buf))
		if err != nil {
			return simOutcome{}, 0, err
		}
		next = func(out []addr.VirtAddr) (int, error) {
			n, err := rd.NextBatch(out)
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
		srcSpan = spDecode
	case w.accesses > 0:
		gen := in.spec.NewTrace(in.traceSeed, w.accesses)
		next = func(out []addr.VirtAddr) (int, error) { return gen.NextBatch(out), nil }
	}
	p, err := newPipeline(w.config(in, org), ambientFMFI, tr)
	if err != nil {
		return simOutcome{}, 0, err
	}
	if w.prepop {
		if _, err := p.populate(spSetup); err != nil {
			return simOutcome{}, 0, fmt.Errorf("populate: %w", err)
		}
	}
	runtime.GC()
	g0 := readGo()
	c0 := cpuNow()
	var o outcome
	if next != nil {
		o, err = p.run(next, srcSpan)
	} else {
		o.os, err = p.populate(spLoop)
		o.accesses = in.pages
	}
	cpu := cpuNow() - c0
	gc.add(g0, readGo())
	if err != nil {
		return simOutcome{}, cpu, err
	}
	res := p.result(o)
	if next == nil {
		res.Accesses = 0 // a populate-only sim.Machine.Run reports no trace references
	}
	lc.add(p, org, o)
	return res, cpu, nil
}

// layerCounts sums the layers' own counters over the traced organizations.
type layerCounts struct {
	refs, batchCalls                                         uint64
	translations, l1Hits, l2Hits, walks                      uint64
	orgWalks, orgWalkCycles                                  [3]uint64
	cacheHits, cacheMisses                                   [3]uint64
	dram                                                     uint64
	ecptKicks, ecptInserts, ecptProbes, ecptLookups          uint64
	ecptUpsizes, ecptMoves                                   uint64
	mehptKicks, mehptInserts, mehptUpsizes, mehptTransitions uint64
	mehptMoved, mehptStayed, mehptStalls, mehptStashed       uint64
	mehptFailedUpsizes                                       uint64
	faults, faultCycles, ptCycles                            uint64
	allocs, failedAllocs, allocCycles                        uint64
}

func (lc *layerCounts) add(p *pipeline, org sim.Org, o outcome) {
	lc.refs += o.accesses
	lc.batchCalls += o.batchCalls
	ms := p.mmu.Stats()
	lc.translations += ms.Translations
	lc.l1Hits += ms.L1Hits
	lc.l2Hits += ms.L2Hits
	lc.walks += ms.Walks
	lc.orgWalks[org] += ms.Walks
	lc.orgWalkCycles[org] += ms.WalkCycles
	for i := range lc.cacheHits {
		cs := p.cache.Level(i).Stats()
		lc.cacheHits[i] += cs.Hits
		lc.cacheMisses[i] += cs.Misses
	}
	lc.dram += p.cache.DRAMAccesses()
	switch t := p.table.(type) {
	case *ecpt.PageTable:
		for _, s := range addr.Sizes() {
			if st := t.Table(s); st != nil {
				cs := st.State().Cuckoo.Stats
				lc.ecptKicks += cs.Kicks
				lc.ecptInserts += cs.Inserts
				lc.ecptProbes += cs.ProbeSlots
				lc.ecptLookups += cs.Lookups
				es := st.ScalarStats()
				lc.ecptUpsizes += es.Upsizes
				lc.ecptMoves += es.Moves
			}
		}
	case *mehpt.PageTable:
		for _, s := range addr.Sizes() {
			if st := t.Table(s); st != nil {
				ms := st.Stats()
				lc.mehptKicks += ms.Kicks
				lc.mehptInserts += ms.Inserts
				for _, u := range ms.UpsizesPerWay {
					lc.mehptUpsizes += u
				}
				lc.mehptTransitions += ms.Transitions
				lc.mehptMoved += ms.UpsizeMoved
				lc.mehptStayed += ms.UpsizeStayed
				lc.mehptStalls += ms.Stalls
				lc.mehptStashed += ms.Stashed
				lc.mehptFailedUpsizes += ms.FailedUpsizes
			}
		}
	}
	oss := p.os.Stats()
	lc.faults += oss.Faults
	lc.faultCycles += oss.FaultCycles
	lc.ptCycles += oss.PTCycles
	lc.allocs += p.src.allocs
	lc.failedAllocs += p.src.failed
	lc.allocCycles += p.src.cycles
}

// fill sets the per-layer metrics of the sim layers. Per-reference figures
// divide by the timed phase's references; per-call figures cover the whole
// operation, set-up populate included.
func (lc *layerCounts) fill(v map[string]float64, tr *tracer) {
	refs := float64(lc.refs)
	perRef := func(s span) float64 { return ratio(float64(tr.stats[s].self), refs) }
	f := func(x uint64) float64 { return float64(x) }
	v["workload.gen_ns_per_access"] = perRef(spGen)
	v["trace.decode_ns_per_access"] = perRef(spDecode)
	v["mmu.batch_ns_per_access"] = perRef(spMMUBatch)
	v["mmu.accesses_per_batch_call"] = ratio(refs, f(lc.batchCalls))
	v["tlb.l1_hit_ratio"] = ratio(f(lc.l1Hits), f(lc.translations))
	v["tlb.l2_hit_ratio"] = ratio(f(lc.l2Hits), f(lc.translations-lc.l1Hits))
	v["mmu.walk_ns"] = tr.meanSelf(spMMUWalk)
	v["mmu.walk_ns.p99"] = tr.p99Self(spMMUWalk)
	v["mmu.walks_per_access"] = ratio(f(lc.walks), refs)
	for _, org := range orgs {
		v["mmu.walk_cycles_per_walk."+orgKeys[org]] = ratio(f(lc.orgWalkCycles[org]), f(lc.orgWalks[org]))
	}
	v["ecpt.walk_ns"] = tr.meanSelf(spWalkECPT)
	v["mehpt.walk_ns"] = tr.meanSelf(spWalkMEHPT)
	v["ecpt.probe_slots_per_lookup"] = ratio(f(lc.ecptProbes), f(lc.ecptLookups))
	v["cache.batch_ns_per_access"] = perRef(spCacheBatch)
	v["cache.access_ns"] = tr.meanSelf(spCacheAccess)
	for i := range lc.cacheHits {
		v[fmt.Sprintf("cache.l%d_hit_ratio", i+1)] = ratio(f(lc.cacheHits[i]), f(lc.cacheHits[i]+lc.cacheMisses[i]))
	}
	v["cache.dram_per_access"] = ratio(f(lc.dram), refs)
	for s, k := range map[span]string{spMapRadix: "radix", spMapECPT: "ecpt", spMapMEHPT: "mehpt"} {
		v[k+".map_ns"] = tr.meanSelf(s)
		v[k+".map_ns.p99"] = tr.p99Self(s)
	}
	v["ecpt.kicks_per_insert"] = ratio(f(lc.ecptKicks), f(lc.ecptInserts))
	v["mehpt.kicks_per_insert"] = ratio(f(lc.mehptKicks), f(lc.mehptInserts))
	v["ecpt.upsizes"] = f(lc.ecptUpsizes)
	v["ecpt.moves"] = f(lc.ecptMoves)
	v["mehpt.upsizes"] = f(lc.mehptUpsizes)
	v["mehpt.transitions"] = f(lc.mehptTransitions)
	v["mehpt.upsize_moved_fraction"] = ratio(f(lc.mehptMoved), f(lc.mehptMoved+lc.mehptStayed))
	v["mehpt.stalls"] = f(lc.mehptStalls)
	v["mehpt.stashed"] = f(lc.mehptStashed)
	v["mehpt.failed_upsizes"] = f(lc.mehptFailedUpsizes)
	v["osmodel.fault_ns"] = tr.meanSelf(spFault)
	v["osmodel.fault_ns.p99"] = tr.p99Self(spFault)
	v["osmodel.faults"] = f(lc.faults)
	v["osmodel.fault_cycles_per_fault"] = ratio(f(lc.faultCycles), f(lc.faults))
	v["osmodel.pt_cycles_per_fault"] = ratio(f(lc.ptCycles), f(lc.faults))
	v["phys.alloc_ns"] = tr.meanSelf(spAlloc)
	v["phys.free_ns"] = tr.meanSelf(spFree)
	v["phys.allocs_per_fault"] = ratio(f(lc.allocs), f(lc.faults))
	v["phys.alloc_cycles_per_alloc"] = ratio(f(lc.allocCycles), f(lc.allocs-lc.failedAllocs))
	v["phys.failed_allocs"] = f(lc.failedAllocs)
	v["sim.loop_ns_per_access"] = perRef(spLoop)
}

// roundSample is one round's host figures, summed over the organizations.
type roundSample struct {
	setup, timed time.Duration
	refs, allocs uint64
	heap         int64
}

func (s *roundSample) add(setup, timed time.Duration, refs, allocs uint64, heap int64) {
	s.setup += setup
	s.timed += timed
	s.refs += refs
	s.allocs += allocs
	s.heap += heap
}

type roundSamples []roundSample

// fill sets the host end-to-end metrics to their medians over the rounds.
func (rs roundSamples) fill(v map[string]float64) {
	var aps, setup, allocs, heap []float64
	for _, s := range rs {
		aps = append(aps, float64(s.refs)/s.timed.Seconds())
		setup = append(setup, s.setup.Seconds())
		allocs = append(allocs, float64(s.allocs)/float64(s.refs))
		heap = append(heap, float64(s.heap)/(1<<20))
	}
	v["accesses_per_s"] = median(aps)

	v["setup_s"] = median(setup)
	v["allocs_per_access"] = median(allocs)
	v["host_heap_mb"] = median(heap)
}

// minRounds is the fewest rounds a run measures, however long they take.
const minRounds = 3

// measureRounds calls round until it returns false or the next round would
// likely end after budget, but at least minRounds times.
func measureRounds(budget time.Duration, round func() bool) {
	start := time.Now()
	var durs []float64
	for {
		t := time.Now()
		if !round() {
			return
		}
		durs = append(durs, time.Since(t).Seconds())
		next := time.Since(start) + time.Duration(median(durs)*float64(time.Second))
		if len(durs) >= minRounds && next > budget {
			return
		}
	}
}

// goStats is a reading of the Go runtime's counters.
type goStats struct {
	allocs, live  uint64  // heap objects allocated so far; live heap bytes at the last GC
	gcCPU, allCPU float64 // CPU seconds spent in GC and in total (GOMAXPROCS × wall)
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readGo() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goStats{allocs: s[0].Value.Uint64(), live: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), allCPU: s[3].Value.Float64()}
}

// goDelta accumulates GC and total CPU over timed phases.
type goDelta struct{ gc, all float64 }

func (d *goDelta) add(before, after goStats) {
	d.gc += after.gcCPU - before.gcCPU
	d.all += after.allCPU - before.allCPU
}

func (d goDelta) share() float64 { return ratio(d.gc, d.all) }
