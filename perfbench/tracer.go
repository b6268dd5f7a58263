package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span names one kind of timed call: a call from the benchmark into a layer,
// or a root span around a whole phase.
type span uint8

const (
	spSetup        span = iota // populate before the timed phase (root)
	spLoop                     // the timed phase's driver loop (root)
	spRound                    // tenant.Machine.StepRound (root per round)
	spGen                      // workload.Trace.NextBatch
	spDecode                   // trace.BinaryReader.NextBatch
	spMMUBatch                 // TranslateBatchPAs
	spMMUWalk                  // TranslateWalk
	spMMUTranslate             // Translate after a serviced fault
	spCacheBatch               // cache.Hierarchy.AccessBatch
	spCacheAccess              // cache.Hierarchy.Access
	spFault                    // osmodel.OS.HandleFault
	spMapRadix                 // radix PageTable.Map, via osmodel.PageTable
	spMapECPT                  // ecpt PageTable.Map
	spMapMEHPT                 // mehpt PageTable.Map
	spWalkECPT                 // ecpt PageTable.Walk, via mmu.HPTPageTable
	spWalkMEHPT                // mehpt PageTable.Walk
	spAlloc                    // phys.Source Alloc and AllocRollback
	spFree                     // phys.Source Free
	numSpans
)

var spanNames = [numSpans]string{
	"sim.setup", "sim.loop", "tenant.round", "workload.gen", "trace.decode",
	"mmu.batch", "mmu.walk", "mmu.translate", "cache.batch", "cache.access",
	"osmodel.fault", "radix.map", "ecpt.map", "mehpt.map", "ecpt.walk",
	"mehpt.walk", "phys.alloc", "phys.free",
}

func (s span) String() string { return spanNames[s] }

// Span is one recorded call. IDs are unique within a tracer; Parent is 0
// for a root span. Times are ns since the tracer started.
type Span struct {
	ID, Parent uint64
	Run        uint32
	Name       span
	Start, End int64
}

// spanStats aggregates every call of one span kind, sampled or not.
type spanStats struct {
	calls uint64
	total int64 // wall time inside the span
	self  int64 // total minus time inside child spans
	hist  histogram
}

type frame struct {
	id         uint64
	name       span
	start      int64
	childTotal int64
}

// tracer times nested calls. Every call is aggregated (count, total and self
// time, self-time histogram); individual spans are kept in memory only for
// sampled stretches of the access stream and for root spans, and written out
// when the run ends. A nil *tracer is a valid no-op, so the pipeline runs
// the same code traced and untraced.
//
// Self time is a span's duration minus the durations of its direct
// children. The pipeline is single-threaded, so siblings never overlap and
// that sum equals the union of the children's intervals.
type tracer struct {
	now    func() int64
	run    uint32
	nextID uint64
	stack  []frame
	stats  [numSpans]spanStats
	keep   bool
	spans  []Span
	limit  int
}

// maxKeptSpans bounds the in-memory span log (about 10 MB of CSV).
const maxKeptSpans = 1 << 18

func newTracer() *tracer {
	t0 := time.Now()
	return &tracer{now: func() int64 { return int64(time.Since(t0)) }, limit: maxKeptSpans}
}

// sample decides whether spans begun from now on are kept; aggregates are
// unaffected.
func (t *tracer) sample(keep bool) {
	if t != nil {
		t.keep = keep
	}
}

// setRun tags spans begun from now on with run id r (one id per
// organization's pipeline).
func (t *tracer) setRun(r uint32) {
	if t != nil {
		t.run = r
	}
}

func (t *tracer) begin(s span) {
	if t == nil {
		return
	}
	t.nextID++
	t.stack = append(t.stack, frame{id: t.nextID, name: s, start: t.now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - f.start
	self := dur - f.childTotal
	st := &t.stats[f.name]
	st.calls++
	st.total += dur
	st.self += self
	st.hist.add(self)
	var parent uint64
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		p.childTotal += dur
		parent = p.id
	}
	if (t.keep || parent == 0) && len(t.spans) < t.limit {
		t.spans = append(t.spans, Span{ID: f.id, Parent: parent, Run: t.run,
			Name: f.name, Start: f.start, End: end})
	}
}

// meanSelf is the mean self time per call of s in ns, 0 without calls.
func (t *tracer) meanSelf(s span) float64 {
	return ratio(float64(t.stats[s].self), float64(t.stats[s].calls))
}

// p99Self is the 99th-percentile self time of s, 0 when fewer than
// minBeyond calls lie beyond it.
func (t *tracer) p99Self(s span) float64 {
	v, _ := t.stats[s].hist.percentile(0.99)
	return v
}

// writeSpans writes the kept spans as CSV to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,run,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.ID, s.Parent, s.Run, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
