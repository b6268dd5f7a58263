// Tests for the multi-tenant machine's determinism contract: the canonical
// fingerprint must be bit-identical at any simulated core count, runs must
// be reproducible end to end, and tenant failures under fault injection
// must stay isolated and typed.
package tenant

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/inject"
	"repro/internal/mmu"
	"repro/internal/phys"
	"repro/internal/sim"
)

func testConfig(org sim.Org, cores int) Config {
	return Config{
		Org:             org,
		Processes:       10,
		Cores:           cores,
		MemBytes:        256 * addr.MB,
		Stripes:         4,
		FMFI:            0.7,
		Seed:            42,
		AccessesPerProc: 1500,
		Quantum:         256,
		Scale:           8192,
		SharedPages:     128,
		SharedFraction:  0.08,
		RemapsPerRound:  4,
	}
}

func TestRunSmokeAllOrgs(t *testing.T) {
	for _, org := range []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT} {
		t.Run(org.String(), func(t *testing.T) {
			res, err := Run(testConfig(org, 4))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Procs) != 10 {
				t.Fatalf("procs = %d", len(res.Procs))
			}
			for _, p := range res.Procs {
				if p.Failed {
					t.Errorf("proc %d failed without injection: %s", p.PID, p.Failure)
				}
				if p.Accesses != 1500 {
					t.Errorf("proc %d ran %d accesses, want 1500", p.PID, p.Accesses)
				}
				if p.Faults == 0 || p.XlatCycles == 0 || p.DataCycles == 0 {
					t.Errorf("proc %d has empty accounting: %+v", p.PID, p)
				}
			}
			if res.Walks == 0 {
				t.Error("no page walks recorded")
			}
			if res.SharedLookups == 0 {
				t.Error("no shared-segment lookups recorded")
			}
			if res.Shootdowns.Events == 0 {
				t.Error("no shootdown events recorded")
			}
			if res.Shootdowns.SharersNotified < res.Shootdowns.Events {
				t.Error("shootdowns notified no sharers")
			}
			if res.Shootdowns.IPIsDelivered == 0 {
				t.Error("no IPIs delivered")
			}
			if res.PoolAllocs == 0 || res.PoolFrees == 0 {
				t.Errorf("pool accounting empty: %d allocs, %d frees",
					res.PoolAllocs, res.PoolFrees)
			}
			if res.Fingerprint == "" {
				t.Error("no fingerprint")
			}
		})
	}
}

// TestCoreCountInvariance is the heart of the tentpole: the canonical
// fingerprint is bit-identical at 1, 2, 4, and 8 simulated cores, for every
// page-table organization.
func TestCoreCountInvariance(t *testing.T) {
	for _, org := range []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT} {
		t.Run(org.String(), func(t *testing.T) {
			var want *Result
			for _, cores := range []int{1, 2, 4, 8} {
				res, err := Run(testConfig(org, cores))
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = res
					continue
				}
				if res.Fingerprint != want.Fingerprint {
					t.Errorf("fingerprint at %d cores differs from 1 core:\n%s\nvs\n%s",
						cores, res.Fingerprint, want.Fingerprint)
				}
				// Spot-check the canonical fields directly so a fingerprint
				// bug cannot hide a divergence.
				if res.Walks != want.Walks || res.WalkCycles != want.WalkCycles {
					t.Errorf("walks diverge at %d cores: %d/%d vs %d/%d",
						cores, res.Walks, res.WalkCycles, want.Walks, want.WalkCycles)
				}
				for i := range res.Procs {
					if res.Procs[i] != want.Procs[i] {
						t.Errorf("proc %d diverges at %d cores:\n%+v\nvs\n%+v",
							i, cores, res.Procs[i], want.Procs[i])
					}
				}
				if res.Shootdowns.Events != want.Shootdowns.Events ||
					res.Shootdowns.SharersNotified != want.Shootdowns.SharersNotified {
					t.Errorf("canonical shootdown accounting diverges at %d cores", cores)
				}
			}
		})
	}
}

// TestRunReproducible: the same config reproduces the entire result —
// core-view metrics included — byte for byte.
func TestRunReproducible(t *testing.T) {
	cfg := testConfig(sim.MEHPT, 4)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("identical configs produced different results:\n%s\nvs\n%s", ja, jb)
	}
}

// TestSeedChangesFingerprint: the seed tree actually feeds the run.
func TestSeedChangesFingerprint(t *testing.T) {
	cfg := testConfig(sim.MEHPT, 2)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Error("seeds 42 and 43 produced the same fingerprint")
	}
}

// TestCoreViewMetricsVaryWithCores: packing fewer processes per core saves
// switches — the metrics outside the fingerprint are allowed (and expected)
// to move with C.
func TestCoreViewMetricsVaryWithCores(t *testing.T) {
	one, err := Run(testConfig(sim.MEHPT, 1))
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(testConfig(sim.MEHPT, 8))
	if err != nil {
		t.Fatal(err)
	}
	if one.Switches <= many.Switches {
		t.Errorf("1 core switched %d times, 8 cores %d; expected more contention on one core",
			one.Switches, many.Switches)
	}
	if one.Shootdowns.IPIsDelivered >= many.Shootdowns.IPIsDelivered {
		t.Errorf("IPIs: 1 core delivered %d, 8 cores %d; more cores should take more IPIs",
			one.Shootdowns.IPIsDelivered, many.Shootdowns.IPIsDelivered)
	}
}

// TestTenantIsolationUnderInjection: a deterministic every-Nth injection
// policy fails some tenants, but the machine completes, failures carry
// typed chains reaching phys.ErrOutOfMemory, and surviving tenants run
// their full budget.
func TestTenantIsolationUnderInjection(t *testing.T) {
	cfg := testConfig(sim.MEHPT, 4)
	cfg.Inject = "nth=400"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, p := range res.Procs {
		if !p.Failed {
			if p.Accesses != cfg.AccessesPerProc {
				t.Errorf("surviving proc %d ran %d/%d accesses", p.PID, p.Accesses, cfg.AccessesPerProc)
			}
			continue
		}
		failed++
		if p.FailureErr == nil {
			t.Errorf("failed proc %d lost its error", p.PID)
			continue
		}
		if !errors.Is(p.FailureErr, phys.ErrOutOfMemory) {
			t.Errorf("proc %d failure does not reach ErrOutOfMemory: %v", p.PID, p.FailureErr)
		}
		if !errors.Is(p.FailureErr, inject.ErrInjected) {
			t.Errorf("proc %d failure not marked injected: %v", p.PID, p.FailureErr)
		}
	}
	if failed == 0 {
		t.Errorf("%s failed no tenants; injection not reaching the pool", cfg.Inject)
	}
	if failed == len(res.Procs) {
		t.Error("every tenant failed; no isolation to observe")
	}
	// Injection must not disturb determinism: same config, same outcome.
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fingerprint != res.Fingerprint {
		t.Error("injected run not reproducible")
	}
}

// deafMMU faults on every reference, as if no page table took the mappings
// its OS installed.
type deafMMU struct{ sim.MMU }

func (deafMMU) Translate(addr.VirtAddr) mmu.Result { return mmu.Result{Fault: true} }

func (deafMMU) TranslateBatchPAs([]addr.VirtAddr, []addr.PhysAddr) (int, uint64, uint64) {
	return 0, 0, 0
}

func (deafMMU) TranslateWalk(addr.VirtAddr, uint64) mmu.Result { return mmu.Result{Fault: true} }

// TestFaultPersistedFailsTenant: a reference that still faults after the
// OS handled it fails its tenant with sim.ErrFaultPersisted instead of
// being priced as an access to physical address 0, so each tenant's first
// reference fails it and none counts.
func TestFaultPersistedFailsTenant(t *testing.T) {
	m, err := NewMachine(testConfig(sim.Radix, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range m.shards {
		sh.eng.MMU = deafMMU{sh.eng.MMU}
	}
	res := runToEnd(t, m)
	for _, p := range res.Procs {
		if !p.Failed || !errors.Is(p.FailureErr, sim.ErrFaultPersisted) {
			t.Errorf("proc %d: failed=%v err=%v, want sim.ErrFaultPersisted", p.PID, p.Failed, p.FailureErr)
		}
		if p.Accesses != 0 || p.SharedAccesses != 0 {
			t.Errorf("proc %d counted %d accesses, %d of them shared: the failing one was counted",
				p.PID, p.Accesses, p.SharedAccesses)
		}
		if p.Faults != 1 {
			t.Errorf("proc %d handled %d faults, want 1", p.PID, p.Faults)
		}
	}
}

// TestSharedMissFailsTenant: a shared page the shared table does not map
// (restore's sharedRegion.check refuses such a state) fails the tenant
// that touches it with sim.ErrFaultPersisted, after the shared references
// before it completed.
func TestSharedMissFailsTenant(t *testing.T) {
	cfg := testConfig(sim.ECPT, 1)
	cfg.Processes, cfg.SharedPages, cfg.SharedFraction = 1, 1, 0.5
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.shared.table.Delete(m.shared.vpn(0))
	p, sh := m.procs[0], m.shards[0]
	sh.bind(p)
	runQuantum(m.cfg, p, sh, m.shared)
	if !p.res.Failed || !errors.Is(p.res.FailureErr, sim.ErrFaultPersisted) {
		t.Fatalf("failed=%v err=%v, want sim.ErrFaultPersisted", p.res.Failed, p.res.FailureErr)
	}
	if p.res.SharedAccesses != 0 || p.res.Accesses == 0 {
		t.Errorf("%d accesses completed, %d of them shared; want only private ones", p.res.Accesses, p.res.SharedAccesses)
	}
}
