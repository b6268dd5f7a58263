// Package experiments contains one driver per table and figure in the
// paper's evaluation (Section VII), plus the Section III allocation-cost
// microbenchmark. Each driver returns typed rows and can print them in the
// same layout the paper uses. DESIGN.md's per-experiment index maps every
// driver to the modules it exercises.
//
// Methodology notes (also in EXPERIMENTS.md):
//
//   - Population experiments (Table I, Figures 8, 10–16) fault in the
//     workload's full-scale touched footprint; page-table sizes, chunk
//     sizes, L2P usage, and resize counts are then read off directly.
//   - Allocation costs are priced at the paper's 0.7-FMFI cost curve via
//     the ambient-fragmentation parameter; memory is not physically
//     shredded for these runs so that a single 64GB machine model can be
//     reused (the failure mode above 0.7 FMFI is demonstrated separately
//     by FragmentationStress and in the phys/ecpt test suites).
//   - Figure 9 composes: steady-state translation + data cycles from a
//     timed trace over the populated tables, plus the page-table
//     allocation and entry-movement cycles from population — the costs the
//     paper attributes the ME-HPT speedup to.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/mehpt"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Options configures a whole experiment suite run.
type Options struct {
	// Scale divides every workload footprint; 1 is the paper's full
	// configuration. Tests use large scales for speed.
	Scale uint64
	// TimedAccesses is the trace length for the performance experiments
	// (Figure 9). The paper's window is ~180M references (550M
	// instructions at ~1/3 memory density).
	TimedAccesses uint64
	// MemBytes is the simulated machine's physical memory.
	MemBytes uint64
	// FMFI is the ambient fragmentation for allocation pricing.
	FMFI float64
	Seed int64
	// Parallel is the worker count for fanning out the independent runs of
	// each experiment matrix; 0 means GOMAXPROCS, 1 forces serial
	// execution. Results are bit-identical at every worker count: each run
	// derives its RNG seed from its identity (runner.DeriveSeed), owns a
	// private sim.Machine, and is collected in submission order.
	Parallel int
	// Progress, if non-nil, is called after every completed run with the
	// completion count, the matrix size, the run's label, its wall-clock
	// duration, and the number of simulated accesses it replayed (zero for
	// population-only jobs) — enough for the caller to derive simulated
	// accesses/sec. It may be called from multiple goroutines concurrently
	// (the callback must be safe for that, e.g. a single fmt.Printf).
	Progress func(done, total int, label string, elapsed time.Duration, accesses uint64)
	// AccessTally, if non-nil, accumulates every job's simulated access
	// count across all drivers run with these Options — the denominator for
	// the CLI's allocs-per-access meter.
	AccessTally *atomic.Uint64
	// Inject is a fault-injection policy spec (see inject.Parse) applied to
	// every job's physical allocator; empty disables injection. Each job
	// derives its injection seed from its own identity seed, so injected
	// runs keep the bit-identical-at-any-worker-count contract.
	Inject string
	// FailFast aborts the remaining jobs of a matrix once any job fails
	// (error, panic, or a Failed result). Canceled jobs report as failed.
	// Fail-fast runs are NOT bit-identical across worker counts (which jobs
	// were in flight when the abort flipped depends on scheduling), so it
	// defaults to off.
	FailFast bool
	// Failures, if non-nil, collects one record per failed job across every
	// driver invoked with these Options. Records are appended in submission
	// order after each matrix completes, so the log's order is deterministic.
	Failures *FailureLog
	// Name labels the experiment currently running in failure records; the
	// CLI sets it before invoking each driver.
	Name string

	// Checkpoint, when non-empty, is the base path for multi-tenant round
	// checkpoints; each job writes to <Checkpoint>.<org>.p<procs>.c<cores>
	// after every completed round (atomic snapshot envelope, see
	// internal/snapshot).
	Checkpoint string
	// Resume, with Checkpoint set, resumes each multi-tenant job from its
	// checkpoint when one exists; a missing checkpoint starts fresh. A
	// resumed job's fingerprint is bit-identical to the uninterrupted run's.
	Resume bool
	// Scrub runs the cross-layer invariant scrubber (internal/scrub) on
	// every multi-tenant machine after it finishes (or recovers, under
	// Chaos); violations are reported on the row.
	Scrub bool
	// Chaos, when non-empty, is a deterministic kill plan (inject.ParseKill,
	// e.g. "remap.after:2") — each multi-tenant job runs the kill → recover
	// → fingerprint-compare harness instead of a plain run. Requires
	// Checkpoint.
	Chaos string
	// Ctx, if non-nil, bounds the suite: multi-tenant machines stop at the
	// next round boundary once it is done, flush a final checkpoint (when
	// Checkpoint is set), and report a partial row.
	Ctx context.Context
	// TenantTrace, when non-empty, is the base path for recorded
	// multi-tenant access streams: each (org, processes) cell uses
	// <TenantTrace>.<org>.p<procs>.btrc, recording it first if absent
	// (before the matrix fans out, so jobs only ever read), then replaying
	// every job of the cell from it. Replayed fingerprints are
	// bit-identical to generated-trace runs of the same cell.
	TenantTrace string
}

// DefaultOptions returns the paper's configuration (full scale).
func DefaultOptions() Options {
	return Options{
		Scale:         1,
		TimedAccesses: 30_000_000,
		MemBytes:      64 * addr.GB,
		FMFI:          0.7,
		Seed:          42,
	}
}

// TestOptions returns a heavily scaled-down configuration for unit tests.
func TestOptions() Options {
	return Options{
		Scale:         128,
		TimedAccesses: 300_000,
		MemBytes:      4 * addr.GB,
		FMFI:          0.7,
		Seed:          42,
	}
}

// specs returns the workloads at the configured scale.
func (o Options) specs() []workload.Spec { return workload.Specs(o.Scale) }

// JobFailure records one failed experiment job for the CLI's failure
// summary: which experiment and job, why it failed, and — when the job
// panicked rather than returning an error — the recovered stack trace.
type JobFailure struct {
	Experiment string `json:"experiment"`
	Job        string `json:"job"`
	Reason     string `json:"reason"`
	Panicked   bool   `json:"panicked,omitempty"`
	Stack      string `json:"stack,omitempty"`
}

// FailureLog is a concurrency-safe collection of JobFailure records shared
// by every driver of a suite run via Options.Failures.
type FailureLog struct {
	mu   sync.Mutex
	recs []JobFailure
}

func (l *FailureLog) add(f JobFailure) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, f)
}

// Len returns the number of recorded failures.
func (l *FailureLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Failures returns a copy of the recorded failures in append order.
func (l *FailureLog) Failures() []JobFailure {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]JobFailure, len(l.recs))
	copy(out, l.recs)
	return out
}

// noteFailure appends one failure record when a log is attached.
func (o Options) noteFailure(job, reason string, panicked bool, stack string) {
	if o.Failures != nil {
		o.Failures.add(JobFailure{Experiment: o.Name, Job: job,
			Reason: reason, Panicked: panicked, Stack: stack})
	}
}

// runJob is one unit of an experiment matrix: a fully-described simulation
// run. The identity fields (spec name, org, THP, ablation) feed the per-job
// seed derivation, so a job's results depend only on what it is — never on
// where in the matrix it sits or which worker executes it.
type runJob struct {
	spec     workload.Spec
	org      sim.Org
	thp      bool
	ablation string        // "" for the full design
	mcfg     *mehpt.Config // optional ME-HPT ablation override (read-only, nil Rand)
	timed    bool          // run the timed trace after population
}

// label names the job in progress output and failure maps.
func (j runJob) label() string {
	l := j.spec.Name + "/" + j.org.String()
	if j.thp {
		l += "+THP"
	}
	if j.ablation != "" {
		l += "/" + j.ablation
	}
	return l
}

// pop builds a population job.
func pop(spec workload.Spec, org sim.Org, thp bool) runJob {
	return runJob{spec: spec, org: org, thp: thp}
}

// run fans the job matrix out over the configured worker pool and returns
// results in submission order. Every job builds its own sim.Machine (and
// therefore its own page tables and RNGs) inside the worker — the ownership
// rule that keeps the pool race-free; see package runner.
//
// Jobs run under per-job panic recovery (runner.MapSafe): a crashing job
// becomes a Failed result carrying the panic message instead of taking the
// matrix down, and — when Options.Failures is attached — a JobFailure record
// with the recovered stack. With FailFast set, the first failure aborts the
// unclaimed remainder of the matrix.
func (o Options) run(jobs []runJob) []sim.Result {
	var done atomic.Int64
	var abort *atomic.Bool
	if o.FailFast {
		abort = new(atomic.Bool)
	}
	envs := runner.MapSafe(o.Parallel, jobs, abort, func(_ int, j runJob) (sim.Result, error) {
		if abort != nil {
			// Flip the abort on the way out of a panicking job too, then
			// re-panic for MapSafe's recovery to capture the envelope.
			defer func() {
				if p := recover(); p != nil {
					abort.Store(true)
					panic(p)
				}
			}()
		}
		start := time.Now() //mehpt:allow detflow -- -progress wall-clock feedback for humans; never reaches a result
		r := o.exec(j)
		if o.AccessTally != nil {
			o.AccessTally.Add(r.Accesses)
		}
		if o.Progress != nil {
			o.Progress(int(done.Add(1)), len(jobs), j.label(), time.Since(start), r.Accesses) //mehpt:allow detflow -- elapsed time is display-only progress output
		}
		if r.Failed && abort != nil {
			abort.Store(true)
		}
		return r, nil
	})
	out := make([]sim.Result, len(envs))
	for i, e := range envs {
		j := jobs[i]
		r := e.Value
		switch {
		case e.Panic != nil:
			r = sim.Result{Org: j.org, Workload: j.spec.Name, THP: j.thp,
				Failed: true, FailReason: fmt.Sprintf("panic: %v", e.Panic)}
			o.noteFailure(j.label(), r.FailReason, true, e.Stack)
		case e.Err != nil:
			r = sim.Result{Org: j.org, Workload: j.spec.Name, THP: j.thp,
				Failed: true, FailReason: e.Err.Error()}
			o.noteFailure(j.label(), r.FailReason, false, "")
		case r.Failed:
			o.noteFailure(j.label(), r.FailReason, false, "")
		}
		out[i] = r
	}
	return out
}

// exec executes one job: build the machine, price allocations at the
// ambient FMFI, populate, and optionally run the timed trace.
func (o Options) exec(j runJob) sim.Result {
	cfg := sim.Config{
		Org:      j.org,
		Workload: j.spec,
		THP:      j.thp,
		Populate: true,
		Seed:     runner.DeriveSeed(o.Seed, j.spec.Name, j.org.String(), j.thp, j.ablation),
		MemBytes: o.MemBytes,
		// Ambient pricing only; see the package comment.
		FMFI:         0, // no physical shredding
		FreeFraction: 0.35,
		MEHPTConfig:  j.mcfg,
		Inject:       o.Inject,
	}
	if j.timed {
		cfg.Accesses = o.TimedAccesses
	}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return sim.Result{Org: j.org, Workload: j.spec.Name, THP: j.thp,
			Failed: true, FailReason: err.Error()}
	}
	m.SetAmbientFMFI(o.FMFI)
	return m.Run()
}

// moveCycles prices one page-table entry migration: a read and a write that
// typically miss the caches (~2 × DRAM minus overlap).
const moveCycles = 150

// perfCycles composes the Figure 9 cycle count from a timed run: the
// steady-state access costs plus the page-table maintenance costs the paper
// attributes the ME-HPT speedups to.
func perfCycles(r sim.Result) uint64 {
	return r.XlatCycles + r.DataCycles + r.PTAllocCycles + r.PTMoves*moveCycles
}

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
