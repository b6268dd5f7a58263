// Package runner executes independent experiment jobs on a bounded worker
// pool. The paper's evaluation matrix — 11 workloads × {Radix, ECPT, ME-HPT}
// × {THP on/off} plus ablations — is embarrassingly parallel: every run owns
// a private sim.Machine, so fanning the matrix out over GOMAXPROCS workers
// reproduces it ~NumCPU× faster with bit-identical results.
//
// Determinism contract: results depend only on each job's identity, never on
// worker count, scheduling, or completion order. Two rules make that hold:
//
//  1. Results are collected in submission order (Map's output slice is
//     indexed by job position, not completion time).
//  2. Every job derives its RNG seed from its identity via DeriveSeed
//     rather than from any shared or sequential state.
//
// Ownership rule (race safety): the page tables (mehpt, ecpt, cuckoo) hold
// *rand.Rand instances, which are not goroutine-safe. A job must construct
// everything it mutates — machine, tables, RNGs — inside its own do()
// invocation and must not share a *rand.Rand (e.g. via mehpt.Config.Rand or
// ecpt.Config.Rand) across jobs. Configs shared across jobs must be
// read-only. sim.NewMachine copies its Config and creates per-machine RNGs
// from Config.Seed, so sharing a *mehpt.Config ablation override with a nil
// Rand across jobs is safe; see DESIGN.md "RNG ownership".
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n if positive, otherwise
// GOMAXPROCS (the default for -parallel 0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs do over every job on min(workers, len(jobs)) goroutines and
// returns the results in submission order. workers <= 0 means GOMAXPROCS;
// workers == 1 degenerates to a plain serial loop on the calling goroutine.
// do receives the job's submission index alongside the job.
//
// Jobs are claimed from a shared atomic cursor (work-stealing), so uneven
// job durations do not idle workers. Each output slot is written by exactly
// one goroutine, and the WaitGroup provides the happens-before edge that
// publishes all writes to the caller.
func Map[J, R any](workers int, jobs []J, do func(i int, job J) R) []R {
	workers = Workers(workers)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]R, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			out[i] = do(i, j)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = do(i, jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Result is the per-job envelope MapSafe returns: the job's value when it
// completed, its error when it returned one, and the recovered panic value
// plus stack trace when it panicked. Exactly one of Err/Panic is set on
// failure; both are nil/empty on success.
type Result[R any] struct {
	Value R
	Err   error
	// Panic is the recovered panic value (nil if the job did not panic) and
	// Stack the goroutine stack captured at recovery time.
	Panic interface{}
	Stack string
}

// MapSafe is Map with per-job fault isolation: each do invocation runs
// under a recover, so one panicking job cannot take down the whole matrix —
// the remaining jobs complete and the caller gets partial results plus a
// precise failure record (value, error, panic trace) per job.
//
// abort, if non-nil, is checked before claiming each job; once set, workers
// stop claiming and the unclaimed jobs' envelopes report a canceled error.
// Setting it from a failure callback implements fail-fast. Note that which
// jobs were already in flight when abort flipped depends on scheduling, so
// fail-fast runs are NOT bit-identical across worker counts — callers that
// need the determinism contract leave abort nil (the default).
func MapSafe[J, R any](workers int, jobs []J, abort *atomic.Bool, do func(i int, job J) (R, error)) []Result[R] {
	return Map(workers, jobs, func(i int, job J) (res Result[R]) {
		if abort != nil && abort.Load() {
			res.Err = fmt.Errorf("runner: job %d canceled (fail-fast abort)", i)
			return res
		}
		defer func() {
			if r := recover(); r != nil {
				res.Panic = r
				res.Stack = string(debug.Stack())
			}
		}()
		res.Value, res.Err = do(i, job)
		return res
	})
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche that turns
// sequential or structured inputs into well-distributed 64-bit values.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fieldSep separates hashed fields so ("ab","c") and ("a","bc") derive
// different seeds.
const fieldSep = 0x1F

// DeriveSeed derives one job's RNG seed from the suite's base seed and the
// job's identity (workload, organization, THP, ablation variant). The
// derivation is a splitmix64 absorption over the identity fields, so any
// single-field difference yields an unrelated seed while the same identity
// always yields the same seed — the property that makes parallel runs
// bit-identical to serial ones.
func DeriveSeed(base int64, workload, org string, thp bool, ablation string) int64 {
	h := splitmix64(uint64(base))
	for _, s := range []string{workload, org, ablation} {
		for i := 0; i < len(s); i++ {
			h = splitmix64(h ^ uint64(s[i]))
		}
		h = splitmix64(h ^ fieldSep)
	}
	if thp {
		h = splitmix64(h ^ 0x544850) // "THP"
	}
	return int64(h)
}

// DeriveSubSeed extends the seed tree one level below a job: from the job's
// own seed, a domain label ("proc", "sched", "shared", "core"), and an
// index within that domain it derives an unrelated seed. The multi-tenant
// machine uses it to give every simulated process, the scheduler, and the
// shared-region manager a private generator whose seed is a pure function
// of identity — never of host worker count or simulated core topology —
// which is what keeps fingerprints bit-identical across both axes.
func DeriveSubSeed(base int64, domain string, index uint64) int64 {
	h := splitmix64(uint64(base))
	for i := 0; i < len(domain); i++ {
		h = splitmix64(h ^ uint64(domain[i]))
	}
	h = splitmix64(h ^ fieldSep)
	h = splitmix64(h ^ index)
	return int64(h)
}
