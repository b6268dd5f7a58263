package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/addr"
	"repro/internal/mmu"
	"repro/internal/runner"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// tenant-mix: 8 tenants cycling through the paper's applications on 2
// simulated cores, with the default quantum, shared segment and remaps. It
// is the only workload that reaches the tenant layer: the scalar
// per-access Translate loop, on-demand faults through phys.Striped,
// context switches and shootdowns.
const (
	tenantProcs    = 8
	tenantCores    = 2
	tenantScale    = 256
	tenantAccesses = 125_000 // per tenant
)

func tenantConfig(seed int64, org sim.Org) tenant.Config {
	return tenant.Config{Org: org, Processes: tenantProcs, Cores: tenantCores,
		FMFI: ambientFMFI, Scale: tenantScale, AccessesPerProc: tenantAccesses,
		Seed: runner.DeriveSeed(seed, "tenant-mix", org.String(), false, "")}
}

// tenantRun is one organization's tenant machine, run to completion.
type tenantRun struct {
	setup, timed time.Duration
	allocs       uint64
	heap         int64
	gc           goDelta // Go runtime activity during the timed phase
	res          *tenant.Result
	refs, cycles uint64
	ptPeak       uint64 // summed over tenants
	maxContig    uint64 // over tenants
}

// runTenant builds one organization's machine and steps it to completion,
// timing each StepRound under tr (nil for the untraced run). failedProcs
// is how many tenants failed a check, with the reason of the first.
func runTenant(seed int64, org sim.Org, tr *tracer) (r tenantRun, failedProcs int, reason string) {
	cfg := tenantConfig(seed, org)
	runtime.GC()
	g0 := readGo()
	c0 := cpuNow()
	m, err := tenant.NewMachine(cfg)
	if err != nil {
		return r, tenantProcs, err.Error()
	}
	r.setup = cpuNow() - c0
	runtime.GC()
	c1, g1 := cpuNow(), readGo()
	for !m.Done() {
		tr.begin(spRound)
		err = m.StepRound()
		tr.end()
		if err != nil {
			return r, tenantProcs, err.Error()
		}
	}
	r.timed = cpuNow() - c1
	g2 := readGo()
	r.gc.add(g1, g2)
	r.allocs = g2.allocs - g0.allocs
	runtime.GC()
	r.heap = int64(readGo().live) - int64(g0.live)
	r.res = m.Collect()
	for _, p := range r.res.Procs {
		r.refs += p.Accesses
		r.cycles += p.XlatCycles + p.DataCycles + p.OSCycles
		switch {
		case p.Failed:
			failedProcs++
			reason = p.Failure
		case p.Accesses != tenantAccesses:
			failedProcs++
			reason = "tenant ran a short access budget"
		}
	}
	if vs := scrub.Machine(m); len(vs) > 0 {
		return r, tenantProcs, "scrub: " + vs[0].String()
	}
	for _, ps := range m.State().Procs {
		peak, contig := tablePeak(ps)
		r.ptPeak += peak
		r.maxContig = max(r.maxContig, contig)
	}
	return r, failedProcs, reason
}

// tablePeak reads a tenant's peak page-table bytes and largest contiguous
// page-table allocation from its checkpointed state, the tenant machine's
// only public view of its tables.
func tablePeak(ps tenant.ProcState) (peak, contig uint64) {
	switch {
	case ps.Radix != nil:
		return uint64(ps.Radix.Stats.PeakNodes) * 4 * addr.KB, ps.Radix.Stats.MaxContiguousAlloc
	case ps.ECPT != nil:
		for _, t := range ps.ECPT.Tables {
			peak += t.Stats.PeakFootprintBytes
			contig = max(contig, t.Stats.MaxContiguousAlloc)
		}
	case ps.MEHPT != nil:
		for _, t := range ps.MEHPT.Tables {
			peak += t.Stats.PeakFootprintBytes
			contig = max(contig, t.Stats.MaxContiguousAlloc)
		}
	}
	return peak, contig
}

func tenantUntraced(seed int64, budget time.Duration, c *outcomeCounts) map[string]float64 {
	vals := zeroMetrics(endToEnd)
	var samples roundSamples
	first := map[sim.Org]tenantRun{}
	measureRounds(budget, func() bool {
		var s roundSample
		for _, org := range orgs {
			c.attempted += tenantProcs
			r, failed, reason := runTenant(seed, org, nil)
			if failed > 0 {
				c.fail(failed, "%v: %s", org, reason)
				return false
			}
			if f, ok := first[org]; !ok {
				first[org] = r
			} else if f.res.Fingerprint != r.res.Fingerprint {
				c.fail(tenantProcs, "%v: fingerprint differs between repetitions of seed %d", org, seed)
				return false
			}
			s.add(r.setup, r.timed, r.refs, r.allocs, r.heap)
		}
		samples = append(samples, s)
		return true
	})
	samples.fill(vals)
	for org, r := range first {
		k := orgKeys[org]
		vals["sim_cycles_per_access."+k] = ratio(float64(r.cycles), float64(r.refs))
		vals["pt_peak_kb."+k] = float64(r.ptPeak) / 1024
		if org != sim.Radix {
			vals["max_contig_kb."+k] = float64(r.maxContig) / 1024
		}
	}
	return vals
}

// tenantTraced runs each organization's machine untraced and then with every
// StepRound timed, checks both land on the same fingerprint, and reports the
// tenant layer's metrics. The machine has no public seam inside a round, so
// the workload layer is timed on its own: generating every tenant's private
// stream with the seeds the machine derives for it.
func tenantTraced(seed int64, spansPath string, c *outcomeCounts) map[string]float64 {
	vals := zeroMetrics(perLayer)
	tr := newTracer()
	var gc goDelta
	var untracedCPU, tracedCPU time.Duration
	var refs, walks, tlbHits, faults uint64
	var res tenant.Result
	valid := true
	for i, org := range orgs {
		c.attempted += tenantProcs
		ref, failed, reason := runTenant(seed, org, nil)
		if failed > 0 {
			c.fail(failed, "%v untraced: %s", org, reason)
			valid = false
			continue
		}
		tr.setRun(uint32(i + 1))
		got, failed, reason := runTenant(seed, org, tr)
		if failed > 0 {
			c.fail(failed, "%v traced: %s", org, reason)
			valid = false
			continue
		}
		if got.res.Fingerprint != ref.res.Fingerprint {
			c.fail(tenantProcs, "%v: traced run fingerprint differs from the untraced one", org)
			valid = false
		}
		untracedCPU += ref.timed
		tracedCPU += got.timed
		gc.gc += got.gc.gc
		gc.all += got.gc.all
		timeGenerators(seed, org, tr)
		r := got.res
		refs += got.refs
		walks += r.Walks
		tlbHits += r.TLBHits
		for _, p := range r.Procs {
			faults += p.Faults
		}
		res.Shootdowns.Events += r.Shootdowns.Events
		res.Shootdowns.IPIsDelivered += r.Shootdowns.IPIsDelivered
		res.Switches += r.Switches
		res.PoolAllocs += r.PoolAllocs
		res.PoolFailedAllocs += r.PoolFailedAllocs
	}
	rounds := &tr.stats[spRound].hist
	p50, _ := rounds.percentile(0.50)
	p95, _ := rounds.percentile(0.95)
	f := func(x uint64) float64 { return float64(x) }
	vals["workload.gen_ns_per_access"] = ratio(float64(tr.stats[spGen].self), f(refs))
	vals["tenant.round_ns.p50"] = p50
	vals["tenant.round_ns.p95"] = p95
	vals["tenant.ns_per_access"] = ratio(float64(tr.stats[spRound].total), f(refs))
	vals["tenant.walks_per_access"] = ratio(f(walks), f(refs))
	vals["tenant.tlb_hit_ratio"] = ratio(f(tlbHits), f(tlbHits+walks))
	vals["tenant.faults"] = f(faults)
	vals["tenant.shootdowns"] = f(res.Shootdowns.Events)
	vals["tenant.ipis"] = f(res.Shootdowns.IPIsDelivered)
	vals["tenant.switches"] = f(res.Switches)
	vals["tenant.pool_allocs"] = f(res.PoolAllocs)
	vals["tenant.pool_failed_allocs"] = f(res.PoolFailedAllocs)
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

// timeGenerators generates each tenant's private access stream as
// tenant.NewMachine seeds it, timing every batch as workload.gen.
func timeGenerators(seed int64, org sim.Org, tr *tracer) {
	cfg := tenantConfig(seed, org)
	specs := workload.Specs(cfg.Scale)
	var buf [mmu.BatchWidth]addr.VirtAddr
	for pid := 0; pid < cfg.Processes; pid++ {
		procSeed := runner.DeriveSubSeed(cfg.Seed, "proc", uint64(pid))
		gen := specs[pid%len(specs)].NewTrace(runner.DeriveSubSeed(procSeed, "trace", 0), cfg.AccessesPerProc)
		for i := 0; ; i++ {
			tr.sample(i%sampleEvery == 0)
			tr.begin(spGen)
			n := gen.NextBatch(buf[:])
			tr.end()
			if n == 0 {
				break
			}
		}
	}
}
