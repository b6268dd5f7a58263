// Package inject provides seeded, deterministic memory-pressure fault
// injection for the physical allocator. ME-HPT exists to survive hostile
// physical-memory conditions — fragmentation that makes contiguous
// allocation fail (Section III) — so the failure paths of the allocation
// and resize stack are first-class code, and this package is the harness
// that exercises them: an Injector installs a policy-driven phys.AllocHook
// that fails allocation attempts by rule (every Nth attempt, above a
// pressure threshold, a seeded random fraction, or any size class).
//
// Determinism contract: a policy's decisions depend only on the request
// stream and, for Random, on a private *rand.Rand constructed from an
// explicit seed inside this package. The same seed and policy over the
// same allocation sequence always injects the same failures, so runs under
// injection stay bit-identical per seed at any worker count — the same
// contract the rest of the simulator obeys (see DESIGN.md).
//
// Injected errors wrap phys.ErrOutOfMemory (and ErrInjected), so every
// degradation path upstream — chunk rollback, resize deferral, cuckoo
// stash, the OS pressure error — treats injected and genuine contiguity
// failures identically, which is the point: the sweep in sweep_test.go
// proves the stack degrades gracefully under every policy in the grid.
package inject

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/addr"
	"repro/internal/phys"
	"repro/internal/snapshot"
)

// ErrInjected marks an allocation failure as injected (as opposed to a
// genuine buddy-allocator exhaustion). Injected errors also wrap
// phys.ErrOutOfMemory, so callers that only care about "contiguous
// allocation failed" need not distinguish.
var ErrInjected = errors.New("inject: injected allocation failure")

// Policy decides whether one allocation attempt should fail. Policies must
// be deterministic functions of the request (and of private seeded state);
// they must not read clocks, global RNGs, or shared mutable state.
type Policy interface {
	ShouldFail(req phys.AllocRequest) bool
	fmt.Stringer
}

// EveryNth fails every Nth allocation attempt (attempts are 1-based, so
// the first failure is attempt N).
type EveryNth struct{ N uint64 }

// ShouldFail implements Policy.
func (p EveryNth) ShouldFail(req phys.AllocRequest) bool {
	return p.N > 0 && req.Seq%p.N == 0
}

func (p EveryNth) String() string { return fmt.Sprintf("nth=%d", p.N) }

// AfterN lets the first N attempts through and fails everything after —
// the sharpest exhaustion model (memory "runs out" at a fixed point).
type AfterN struct{ N uint64 }

// ShouldFail implements Policy.
func (p AfterN) ShouldFail(req phys.AllocRequest) bool { return req.Seq > p.N }

func (p AfterN) String() string { return fmt.Sprintf("after=%d", p.N) }

// Pressure fails every attempt once used memory exceeds the given fraction
// of capacity — a hard memory-pressure ceiling, the scenario where the OS
// would be reclaiming and compacting instead of handing out frames.
type Pressure struct{ UsedFraction float64 }

// ShouldFail implements Policy.
func (p Pressure) ShouldFail(req phys.AllocRequest) bool {
	if req.TotalBytes == 0 {
		return false
	}
	used := float64(req.TotalBytes-req.FreeBytes) / float64(req.TotalBytes)
	return used > p.UsedFraction
}

func (p Pressure) String() string { return fmt.Sprintf("pressure=%g", p.UsedFraction) }

// MinSize fails every attempt at or above a size threshold — the paper's
// fragmentation failure mode, where small allocations still succeed but
// large contiguous blocks (64MB ECPT ways) cannot be assembled.
type MinSize struct{ Bytes uint64 }

// ShouldFail implements Policy.
func (p MinSize) ShouldFail(req phys.AllocRequest) bool { return req.Size >= p.Bytes }

func (p MinSize) String() string { return fmt.Sprintf("big=%d", p.Bytes) }

// Random fails a seeded random fraction of attempts. The generator is
// private to the policy (constructed by NewRandom from an explicit seed),
// so decisions are reproducible and never shared across jobs.
type Random struct {
	p   float64
	src *snapshot.Source // counting source under rng, for checkpoints
	rng *rand.Rand
}

// NewRandom returns a Random policy failing fraction p of attempts, drawing
// from a fresh generator seeded with seed. Each job must own its policy
// (and therefore its generator); see the runner's RNG-ownership rule.
func NewRandom(p float64, seed int64) *Random {
	src := snapshot.NewSource(seed)
	return &Random{p: p, src: src, rng: rand.New(src)}
}

// ShouldFail implements Policy. It draws exactly once per attempt, so the
// decision stream is a pure function of the seed and the attempt sequence.
func (p *Random) ShouldFail(req phys.AllocRequest) bool {
	return p.rng.Float64() < p.p
}

func (p *Random) String() string { return fmt.Sprintf("rate=%g", p.p) }

// Any fails when any member policy fails (policy composition: "nth=7+big=1MB").
type Any []Policy

// ShouldFail implements Policy. Every member is always consulted — never
// short-circuited — so stateful members (Random) consume their random
// stream identically regardless of the other members' decisions.
func (p Any) ShouldFail(req phys.AllocRequest) bool {
	fail := false
	for _, m := range p {
		if m.ShouldFail(req) {
			fail = true
		}
	}
	return fail
}

func (p Any) String() string {
	parts := make([]string, len(p))
	for i, m := range p {
		parts[i] = m.String()
	}
	return strings.Join(parts, "+")
}

// Stats counts the injector's activity.
type Stats struct {
	Attempts uint64 // allocation attempts observed
	Injected uint64 // attempts failed by policy
}

// Injector binds a Policy to a phys.Allocator as its AllocHook.
type Injector struct {
	policy Policy
	stats  Stats
}

// Attach installs a policy-driven fault injector on the allocator and
// returns it. The injector owns the allocator's Hook slot; attaching a
// second injector replaces the first.
func Attach(a *phys.Allocator, p Policy) *Injector {
	in := &Injector{policy: p}
	a.Hook = in.hook
	return in
}

// AttachStriped installs a policy-driven fault injector on a striped
// multi-tenant pool, consulted machine-wide before every attempt on any
// stripe. The injector owns the pool's Hook slot, as Attach does the
// allocator's.
func AttachStriped(s *phys.Striped, p Policy) *Injector {
	in := &Injector{policy: p}
	s.Hook = in.hook
	return in
}

// Stats returns the injector's counters.
func (in *Injector) Stats() Stats { return in.stats }

func (in *Injector) hook(req phys.AllocRequest) error {
	in.stats.Attempts++
	if in.policy.ShouldFail(req) {
		in.stats.Injected++
		return fmt.Errorf("%w: %w (policy %s, attempt %d, %d bytes)",
			phys.ErrOutOfMemory, ErrInjected, in.policy, req.Seq, req.Size)
	}
	return nil
}

// Parse builds a Policy from a spec string. Grammar: one or more clauses
// joined by "+", where a clause is
//
//	nth=N        fail every Nth attempt
//	after=N      fail every attempt after the first N
//	rate=P       fail fraction P of attempts (seeded from seed)
//	pressure=F   fail once used memory exceeds fraction F of capacity
//	big=SIZE     fail attempts of at least SIZE bytes (suffixes KB/MB/GB)
//
// e.g. "nth=7", "rate=0.05", "pressure=0.9+big=1MB". seed feeds only the
// rate clause's private generator; every other clause is stateless.
func Parse(spec string, seed int64) (Policy, error) {
	clauses := strings.Split(spec, "+")
	var members Any
	for i, c := range clauses {
		c = strings.TrimSpace(c)
		key, val, ok := strings.Cut(c, "=")
		if !ok {
			return nil, fmt.Errorf("inject: clause %q: want key=value", c)
		}
		switch key {
		case "nth":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("inject: nth=%q: want a positive integer", val)
			}
			members = append(members, EveryNth{N: n})
		case "after":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("inject: after=%q: want an integer", val)
			}
			members = append(members, AfterN{N: n})
		case "rate":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("inject: rate=%q: want a fraction in [0,1]", val)
			}
			// Give each rate clause an unrelated stream so "rate=a+rate=b"
			// does not correlate.
			members = append(members, NewRandom(p, seed+int64(i)*0x9E3779B9))
		case "pressure":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("inject: pressure=%q: want a fraction in [0,1]", val)
			}
			members = append(members, Pressure{UsedFraction: f})
		case "big":
			b, err := parseSize(val)
			if err != nil {
				return nil, fmt.Errorf("inject: big=%q: %w", val, err)
			}
			members = append(members, MinSize{Bytes: b})
		default:
			return nil, fmt.Errorf("inject: unknown clause %q (want nth|after|rate|pressure|big)", key)
		}
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("inject: empty policy spec")
	}
	if len(members) == 1 {
		return members[0], nil
	}
	return members, nil
}

// parseSize parses a byte size with an optional KB/MB/GB suffix.
func parseSize(s string) (uint64, error) {
	mult := uint64(1)
	upper := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(upper, "KB"):
		mult, upper = addr.KB, upper[:len(upper)-2]
	case strings.HasSuffix(upper, "MB"):
		mult, upper = addr.MB, upper[:len(upper)-2]
	case strings.HasSuffix(upper, "GB"):
		mult, upper = addr.GB, upper[:len(upper)-2]
	}
	n, err := strconv.ParseUint(upper, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("want BYTES[KB|MB|GB]")
	}
	return n * mult, nil
}
