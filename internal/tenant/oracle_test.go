package tenant

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/mmu"
	"repro/internal/osmodel"
	"repro/internal/phys"
	"repro/internal/sim"
)

// The tenant translation oracle: a flat (pid, vpn, size) → ppn map that
// learns mappings only where they enter the machine — what a tenant's OS
// installs in its page table, and which frame the shared segment's pool
// view grants and frees on a remap — and never reads a table under test.
// FuzzTenantOps drives whole machines through scheduling rounds, extra
// shared remaps and checkpoint → RestoreMachine, and requires every
// physical address the engine is handed, and every TLB entry a shard
// holds after a round, to be the oracle's.

// sharedPID keys the shared segment's pages in a flatOracle.
const sharedPID = -1

// flatOracle is the machine's translation specification, keyed like the
// naive hashed page table of a teaching kernel: by address space and page.
// An address translates at the largest page size that maps it.
type flatOracle map[oracleKey]addr.PPN

// oracleKey names one mapping: a page of an address space at a page size.
type oracleKey struct {
	pid  int
	vpn  addr.VPN
	size addr.PageSize
}

// translate returns the frame and page size that map va in address space
// pid.
func (o flatOracle) translate(pid int, va addr.VirtAddr) (addr.PPN, addr.PageSize, bool) {
	for i := int(addr.NumPageSizes) - 1; i >= 0; i-- {
		s := addr.PageSize(i)
		if ppn, ok := o[oracleKey{pid, va.PageNumber(s), s}]; ok {
			return ppn, s, true
		}
	}
	return 0, 0, false
}

// recordingTable is a tenant's page table as its OS sees it, recording
// every mapping the OS installs or removes.
type recordingTable struct {
	osmodel.PageTable
	pid    int
	oracle flatOracle
}

func (r recordingTable) Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error) {
	cycles, err := r.PageTable.Map(vpn, s, ppn)
	if err == nil {
		r.oracle[oracleKey{r.pid, vpn, s}] = ppn
	}
	return cycles, err
}

func (r recordingTable) Unmap(vpn addr.VPN, s addr.PageSize) (uint64, bool) {
	cycles, ok := r.PageTable.Unmap(vpn, s)
	if ok {
		delete(r.oracle, oracleKey{r.pid, vpn, s})
	}
	return cycles, ok
}

// sharedView is the shared segment's pool view, telling its run which
// frames it grants and frees.
type sharedView struct {
	phys.Source
	run *opsRun
}

func (v sharedView) Alloc(size uint64) (addr.PPN, uint64, error) {
	ppn, cycles, err := v.Source.Alloc(size)
	if err == nil {
		v.run.granted(ppn)
	}
	return ppn, cycles, err
}

func (v sharedView) Free(ppn addr.PPN, size uint64) {
	v.Source.Free(ppn, size)
	v.run.freed(ppn)
}

// oracleMMU is a shard engine's MMU, checking every translation it hands
// the engine against the oracle in the address space of the tenant the
// shard is bound to.
type oracleMMU struct {
	sim.MMU
	mmu *mmu.MMU
	run *opsRun
}

func (m oracleMMU) Translate(va addr.VirtAddr) mmu.Result {
	r := m.MMU.Translate(va)
	m.run.check(m.mmu, va, r, true)
	return r
}

func (m oracleMMU) TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64) {
	n, latSum, missLat := m.MMU.TranslateBatchPAs(vas, pas)
	for i := 0; i < n; i++ {
		m.run.check(m.mmu, vas[i], mmu.Result{PA: pas[i]}, false)
	}
	return n, latSum, missLat
}

func (m oracleMMU) TranslateWalk(va addr.VirtAddr, missLat uint64) mmu.Result {
	r := m.MMU.TranslateWalk(va, missLat)
	m.run.check(m.mmu, va, r, true)
	return r
}

// Tenant fuzz ops, 2 bytes each: kind (mod topKinds), then argument a.
const (
	// topRound steps one scheduling round (a kind of its own twice, so
	// rounds outnumber the other ops).
	topRound = iota
	topRound2
	// topRemap remaps shared page a outside a round, as a remap round
	// does.
	topRemap
	// topRestore checkpoints the machine and continues on a
	// RestoreMachine of the decoded checkpoint.
	topRestore
	topKinds
)

// maxTenantOps bounds the ops one input runs; a machine is done after
// opsConfig's eight rounds.
const maxTenantOps = 48

// opsPolicies are the injection policies an input picks from.
var opsPolicies = []string{"", "nth=9", "rate=0.02", "after=600"}

// opsConfig is a small machine whose shared segment is hot: every quantum
// touches most shared pages, so a stale shared translation is used.
func opsConfig(org sim.Org, cores int, policy string) Config {
	return Config{
		Org:             org,
		Processes:       3,
		Cores:           cores,
		MemBytes:        32 * addr.MB,
		Stripes:         2,
		Seed:            7,
		AccessesPerProc: 2048,
		Quantum:         256,
		Scale:           64,
		SharedPages:     24,
		SharedFraction:  0.3,
		RemapsPerRound:  3,
		Inject:          policy,
	}
}

// tenantReach counts what one run reached, for the seeded loop's floors.
type tenantReach struct {
	sharedWalks   int // shared references that walked the shared table
	privateFaults int // private references that faulted
	roundRemaps   int // remaps a scheduling round made
	restores      int // checkpoint → RestoreMachine
	injectedFails int // tenants failed by pool pressure, which the policies inject
}

func (r *tenantReach) add(o tenantReach) {
	r.sharedWalks += o.sharedWalks
	r.privateFaults += o.privateFaults
	r.roundRemaps += o.roundRemaps
	r.restores += o.restores
	r.injectedFails += o.injectedFails
}

// opsRun is one input's run: the machine under test, checked against the
// oracle, and an unchecked twin at another core count that runs the same
// ops without a restore. Canonical cold start makes their fingerprints
// equal after every op.
type opsRun struct {
	t      *testing.T
	cfg    Config
	m      *Machine
	twin   *Machine
	oracle flatOracle
	// frames inverts the oracle's shared pages; remapping is the page a
	// test-driven remap moves, or -1 inside a round.
	frames    map[addr.PPN]uint64
	remapping int
	grant     addr.PPN // the frame granted to the remap in progress
	pending   bool
	reach     tenantReach
	op        int
}

func newOpsRun(t *testing.T, org sim.Org, cores int, policy string) *opsRun {
	twinCores := 1
	if cores == 1 {
		twinCores = 3
	}
	r := &opsRun{t: t, cfg: opsConfig(org, cores, policy), oracle: flatOracle{},
		frames: map[addr.PPN]uint64{}, remapping: -1}
	var err error
	if r.m, err = NewMachine(r.cfg); err != nil {
		t.Fatal(err)
	}
	if r.twin, err = NewMachine(opsConfig(org, twinCores, policy)); err != nil {
		t.Fatal(err)
	}
	r.watch()
	// The premap ran inside NewMachine, before the oracle could see the
	// pool, so the run starts by moving every shared page once, with
	// injection held off, through the machine's own remap path: from then
	// on the oracle has seen every shared frame granted. The twin moves
	// the same pages to stay on the same pool state.
	for page := uint64(0); page < r.cfg.SharedPages; page++ {
		for _, m := range []*Machine{r.m, r.twin} {
			hook := m.pool.Hook
			m.pool.Hook = nil
			r.remap(m, page)
			m.pool.Hook = hook
		}
	}
	return r
}

// watch wraps the machine's tenant OSes, shard engines and shared view so
// the oracle learns and checks through them. A restore builds them anew.
func (r *opsRun) watch() {
	m := r.m
	for _, p := range m.procs {
		os := osmodel.New(osmodel.DefaultConfig(), recordingTable{p.table, p.id, r.oracle}, m.pool.View(uint64(p.id)))
		os.RestoreStats(p.os.Stats())
		p.os = os
	}
	for _, sh := range m.shards {
		sh.eng.MMU = oracleMMU{MMU: sh.mmu, mmu: sh.mmu, run: r}
	}
	m.shared.view = sharedView{m.shared.view, r}
}

func (r *opsRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%v cores=%d %q op %d: "+format,
		append([]any{r.cfg.Org, r.cfg.Cores, r.cfg.Inject, r.op}, args...)...)
}

// remap moves shared page on m; on the machine under test the oracle
// learns the new frame.
func (r *opsRun) remap(m *Machine, page uint64) {
	if m == r.m {
		r.remapping = int(page)
		defer func() { r.remapping = -1 }()
	}
	m.shared.remap(page, m.shards)
}

// granted notes a frame the shared view granted; the remap that asked for
// it publishes it when it frees the page's old frame.
func (r *opsRun) granted(ppn addr.PPN) {
	if r.pending {
		r.fatalf("the shared view granted %#x while %#x was unpublished", uint64(ppn), uint64(r.grant))
	}
	r.grant, r.pending = ppn, true
}

// freed notes a frame the shared view freed: the remap in progress moved
// the page that held it to the granted frame.
func (r *opsRun) freed(old addr.PPN) {
	if !r.pending {
		r.fatalf("the shared view freed %#x with no frame granted", uint64(old))
	}
	page, ok := r.frames[old]
	switch {
	case r.remapping >= 0 && ok && page != uint64(r.remapping):
		r.fatalf("remapping shared page %d freed page %d's frame %#x", r.remapping, page, uint64(old))
	case r.remapping >= 0:
		page = uint64(r.remapping)
	case !ok:
		r.fatalf("a remap freed %#x, which no shared page holds", uint64(old))
	default:
		r.reach.roundRemaps++
	}
	delete(r.frames, old)
	r.frames[r.grant] = page
	r.oracle[oracleKey{sharedPID, addr.VPN(r.m.shared.vpn(page)), addr.Page4K}] = r.grant
	r.pending = false
}

// expect returns what va translates to in the address space mm is bound
// to: the shared segment's frame inside its window, else the bound
// tenant's.
func (r *opsRun) expect(mm *mmu.MMU, va addr.VirtAddr) (ppn addr.PPN, s addr.PageSize, shared, ok bool) {
	if va >= SharedBaseVA && va < r.m.shared.va(r.m.shared.pages) {
		ppn, s, ok = r.oracle.translate(sharedPID, va)
		return ppn, s, true, ok
	}
	for _, p := range r.m.procs {
		if mmu.Table(p.table) == mm.Table() {
			ppn, s, ok = r.oracle.translate(p.id, va)
			return ppn, s, false, ok
		}
	}
	r.fatalf("va %#x translated on a shard bound to no tenant", uint64(va))
	return 0, 0, false, false
}

// check requires a translation the engine was handed to be the oracle's:
// the oracle's physical address, or a fault on an unmapped private
// address. walked is false for a batch TLB hit.
func (r *opsRun) check(mm *mmu.MMU, va addr.VirtAddr, res mmu.Result, walked bool) {
	r.t.Helper()
	ppn, s, shared, ok := r.expect(mm, va)
	switch {
	case shared && !ok:
		r.fatalf("shared va %#x has no frame in the oracle", uint64(va))
	case shared && res.Fault:
		r.fatalf("shared va %#x faulted", uint64(va))
	case !ok && !res.Fault:
		r.fatalf("unmapped va %#x translated to %#x", uint64(va), uint64(res.PA))
	case ok && res.Fault:
		r.fatalf("mapped va %#x faulted", uint64(va))
	case ok && res.PA != addr.Translate(va, ppn, s):
		r.fatalf("va %#x translated to %#x, oracle %#x", uint64(va), uint64(res.PA), uint64(addr.Translate(va, ppn, s)))
	}
	if shared && walked {
		r.reach.sharedWalks++
	}
	if res.Fault {
		r.reach.privateFaults++
	}
}

// checkTLBs requires every resident TLB entry of every shard to hold the
// oracle's frame at the oracle's page size.
func (r *opsRun) checkTLBs() {
	for c, sh := range r.m.shards {
		sh.mmu.TLB.VisitEntries(func(vpn addr.VPN, s addr.PageSize, level int, pay uint64) {
			if sh.mmu.Table() == nil {
				r.fatalf("unbound core %d: L%d TLB holds page %#x", c, level, uint64(vpn))
			}
			ppn, size, _, ok := r.expect(sh.mmu, vpn.Addr(s))
			if !ok || size != s || uint64(ppn) != pay {
				r.fatalf("core %d: L%d TLB caches %v page %#x as %#x, oracle %#x at %v (mapped %v)",
					c, level, s, uint64(vpn), pay, uint64(ppn), size, ok)
			}
		})
	}
}

// step runs one op on the machine and its twin.
func (r *opsRun) step(kind, a byte) {
	switch kind % topKinds {
	case topRound, topRound2:
		for _, m := range []*Machine{r.m, r.twin} {
			if err := m.StepRound(); err != nil {
				r.fatalf("StepRound: %v", err)
			}
		}
		r.checkTLBs()
		for _, p := range r.m.procs {
			// Tenants fail only when the pool refuses a frame. A restored
			// failure keeps its message, not its chain.
			if p.res.Failed && !errors.Is(p.res.FailureErr, phys.ErrOutOfMemory) &&
				(p.res.FailureErr != nil || !strings.Contains(p.res.Failure, phys.ErrOutOfMemory.Error())) {
				r.fatalf("tenant %d failed: %s", p.id, p.res.Failure)
			}
		}
	case topRemap:
		page := uint64(a) % r.cfg.SharedPages
		r.remap(r.m, page)
		r.remap(r.twin, page)
		r.checkTLBs()
	case topRestore:
		var buf bytes.Buffer
		var st MachineState
		if err := gob.NewEncoder(&buf).Encode(r.m.State()); err != nil {
			r.fatalf("encoding the checkpoint: %v", err)
		}
		if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
			r.fatalf("decoding the checkpoint: %v", err)
		}
		m, err := RestoreMachine(r.cfg, &st)
		if err != nil {
			r.fatalf("RestoreMachine: %v", err)
		}
		r.m = m
		r.watch()
		r.reach.restores++
	}
	if a, b := r.m.Collect().Fingerprint, r.twin.Collect().Fingerprint; a != b {
		r.fatalf("fingerprint %s at %d cores, %s at %d", a[:16], r.cfg.Cores, b[:16], r.twin.cfg.Cores)
	}
}

// finish tallies the tenants the run's injection policy failed.
func (r *opsRun) finish() tenantReach {
	for _, p := range r.m.procs {
		if p.res.Failed {
			r.reach.injectedFails++
		}
	}
	return r.reach
}

// runTenantOps runs data's ops on org's machine: data[0] picks 1–4 cores
// and data[1] an injection policy, then ops follow two bytes each.
func runTenantOps(t *testing.T, org sim.Org, data []byte) tenantReach {
	if len(data) < 2 {
		return tenantReach{}
	}
	r := newOpsRun(t, org, 1+int(data[0]%4), opsPolicies[int(data[1])%len(opsPolicies)])
	for i := 2; i+2 <= len(data) && i < 2+2*maxTenantOps; i += 2 {
		r.op = i/2 - 1
		r.step(data[i], data[i+1])
	}
	return r.finish()
}

// tenantOrgs are the organizations FuzzTenantOps picks from.
var tenantOrgs = []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT}

// FuzzTenantOps decodes the input into an organization (its first byte),
// a core count, an injection policy and ops — scheduling rounds, extra
// shared remaps, checkpoint → RestoreMachine — and runs them on that
// organization's machine. Every translation the engine is handed must be
// the oracle's, only unmapped private addresses may fault, every TLB
// entry a shard holds after an op must be the oracle's, and the
// fingerprint must equal that of a twin at another core count that never
// restores. The seed corpus runs every hand-written input on every
// organization.
func FuzzTenantOps(f *testing.F) {
	for _, s := range tenantOpsSeeds() {
		for i := range tenantOrgs {
			f.Add(append([]byte{byte(i)}, s...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runTenantOps(t, tenantOrgs[int(data[0])%len(tenantOrgs)], data[1:])
	})
}

// tenantOpsSeeds are hand-written inputs: rounds with extra remaps between
// them on one core, and restores between rounds on four cores under a
// failure policy.
func tenantOpsSeeds() [][]byte {
	return [][]byte{
		{0, 0, topRound, 0, topRemap, 3, topRound, 0, topRemap, 3, topRemap, 9, topRound, 0, topRestore, 0, topRound, 0},
		{3, 1, topRound, 0, topRestore, 0, topRound, 0, topRemap, 17, topRound, 0, topRestore, 0, topRound, 0, topRound, 0},
	}
}

// tenantOpsInput generates a seeded input of n ops, mostly rounds.
func tenantOpsInput(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := []byte{byte(rng.Intn(256)), byte(seed)}
	for i := 0; i < n; i++ {
		kind := topRound
		switch x := rng.Intn(8); {
		case x < 2:
			kind = topRemap
		case x < 3:
			kind = topRestore
		}
		out = append(out, byte(kind), byte(rng.Intn(256)))
	}
	return out
}

// TestTenantOpsSeeded is FuzzTenantOps' seeded tier-1 loop over every
// injection policy. Beyond the per-op checks, it requires by count, per
// organization, shared references that walked the shared table, private
// faults, remaps inside rounds, restores and a tenant failed by an
// injected allocation failure.
func TestTenantOpsSeeded(t *testing.T) {
	for _, org := range tenantOrgs {
		t.Run(org.String(), func(t *testing.T) {
			var reach tenantReach
			for _, s := range tenantOpsSeeds() {
				reach.add(runTenantOps(t, org, s))
			}
			for seed := int64(0); seed < 2*int64(len(opsPolicies)); seed++ {
				reach.add(runTenantOps(t, org, tenantOpsInput(seed, 14)))
			}
			t.Logf("%+v", reach)
			if reach.sharedWalks == 0 || reach.privateFaults == 0 || reach.roundRemaps == 0 ||
				reach.restores == 0 || reach.injectedFails == 0 {
				t.Errorf("a floor was not reached: %+v", reach)
			}
		})
	}
}
