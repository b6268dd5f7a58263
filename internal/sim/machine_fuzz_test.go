package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/chunk"
	"repro/internal/cuckoo"
	"repro/internal/ecpt"
	"repro/internal/inject"
	"repro/internal/l2p"
	"repro/internal/mehpt"
	"repro/internal/mmu"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/radix"
)

// Machine fuzz ops, 3 bytes each: kind (mod mopKinds), then arguments a
// and b. Bit 7 of b names the address space of a map, unmap, bulk map or
// checkpoint.
const (
	// mopMap maps one window page: bit 7 of a picks 2MB over 4KB and the
	// rest the page; the PPN comes from b and the op index. With bits 7–6
	// of a 01 it maps one bulk page (as mopBulk) instead.
	mopMap  = iota
	mopMap2 // a second map kind, so maps outnumber unmaps
	// mopBulk maps 64+32·a pages, one per cluster at sub-index b%8, past
	// the address space's earlier bulk pages.
	mopBulk
	// mopUnmap unmaps a window page (as mopMap), or with bit 6 of a a
	// bulk page, then invalidates it in the MMU if its space is bound.
	mopUnmap
	// mopTranslate translates a batch of a%65 addresses drawn from b.
	mopTranslate
	// mopSwitch binds address space a&1 to the MMU.
	mopSwitch
	// mopInject arms an every-(1+a%4)th allocation-failure policy, or
	// disarms an armed one.
	mopInject
	// mopCheckpoint restores the space from its State; with bit 0 of a,
	// an ME-HPT space restores with one way entry moved to the stash.
	mopCheckpoint
	// mopScrub runs the tables' structural checks.
	mopScrub
	mopKinds
)

const (
	// window4K and window2M are the pages per size the single-page ops
	// touch in each address space; the 4KB window straddles the 2MB pages
	// window2MBase+3 and +4, so 2MB maps promote over 4KB pages.
	window4K     = 40
	window2M     = 8
	window4KBase = addr.VPN(0x4321<<9 + 500)
	window2MBase = addr.VPN(0x4321 - 3)
	// bulkBase is the first 4KB VPN of the bulk region, far from the
	// windows; bulk pages sit one per cluster.
	bulkBase = addr.VPN(1 << 20)
	// bulkCap bounds the bulk pages of one address space, enough for an
	// ME-HPT way to outgrow 64 8KB chunks and change chunk size.
	bulkCap = 20000
	// maxMachineOps bounds the ops one input runs.
	maxMachineOps = 200
)

// machineReach counts what one run reached, for the seeded loop's floors.
type machineReach struct {
	upsizes          uint64 // per-size table upsizes (hashed organizations)
	inPlaceStays     uint64 // ME-HPT entries an in-place upsize left in place
	transitions      uint64 // ME-HPT chunk-size transitions
	stayMoveChecks   int    // maps the exact §IV-C check saw process entries
	injectedMapFails int    // maps that failed with an injected failure inside them
	midResizeRestore int    // checkpoint→restore taken with a resize in flight
	stashRestores    int    // ME-HPT restores with a stash-resident cluster
}

func (r *machineReach) add(o machineReach) {
	r.upsizes += o.upsizes
	r.inPlaceStays += o.inPlaceStays
	r.transitions += o.transitions
	r.stayMoveChecks += o.stayMoveChecks
	r.injectedMapFails += o.injectedMapFails
	r.midResizeRestore += o.midResizeRestore
	r.stashRestores += o.stashRestores
}

// fuzzTable is what the machine fuzzer drives of every organization.
type fuzzTable interface {
	PageTable
	CheckTables() []string
	VisitOwnedFrames(f func(base addr.PPN, bytes uint64))
}

// probeWalk is one hashed page walk the MMU made: the translation and the
// physical address of the slot it probed.
type probeWalk struct {
	va    addr.VirtAddr
	tr    pt.Translation
	probe addr.PhysAddr
}

// probeRecorder is a hashed page table as the MMU walks it, recording
// every walk that finds a translation.
type probeRecorder struct {
	mmu.HPTPageTable
	walks *[]probeWalk
}

func (r probeRecorder) Walk(va addr.VirtAddr) (pt.Translation, addr.PhysAddr, bool) {
	tr, probe, ok := r.HPTPageTable.Walk(va)
	if ok {
		*r.walks = append(*r.walks, probeWalk{va, tr, probe})
	}
	return tr, probe, ok
}

// machineRun is one organization's machine under fuzz: two address spaces
// over one allocator behind one MMU, and the flat oracle they must match.
type machineRun struct {
	t        *testing.T
	org      Org
	op       int
	alloc    *phys.Allocator
	injector *inject.Injector // nil when disarmed
	mm       *mmu.MMU
	spaces   [2]fuzzTable
	bound    int
	oracle   flatOracle
	// touched holds, per space, every page a map or unmap named, plus the
	// windows, with the oracle's view of it; touchedIdx indexes it.
	touched    [2][]touchedPage
	touchedIdx map[oracleKey]int
	// dirty marks the spaces an op may have changed: a table changes only
	// through ops on its own space.
	dirty  [2]bool
	bulk   [2][]addr.VPN // bulk pages a map has named, per space
	walks  []probeWalk
	walked []addr.VirtAddr // addresses the last translate op walked
	reach  machineReach
}

func newMachineRun(t *testing.T, org Org) *machineRun {
	r := &machineRun{
		t:          t,
		org:        org,
		alloc:      phys.NewAllocator(phys.NewMemory(512*addr.MB), 0),
		oracle:     flatOracle{},
		touchedIdx: map[oracleKey]int{},
	}
	for asid := range r.spaces {
		tbl, err := OpenTable(org, r.alloc, r.hashSeed(asid), r.newRand(int64(asid)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.spaces[asid] = tbl.(fuzzTable)
		for i := addr.VPN(0); i < window4K; i++ {
			r.touch(oracleKey{asid, window4KBase + i, addr.Page4K})
		}
		for i := addr.VPN(0); i < window2M; i++ {
			r.touch(oracleKey{asid, window2MBase + i, addr.Page2M})
		}
	}
	r.mm = NewMMU(org, nil, cache.NewHierarchy(cache.TableIII()))
	r.bind()
	return r
}

func (r *machineRun) hashSeed(asid int) uint64 { return 19 + uint64(asid) }

func (r *machineRun) newRand(seed int64) func() rand.Source {
	return func() rand.Source { return rand.NewSource(seed) }
}

func (r *machineRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%v op %d: %s", r.org, r.op, fmt.Sprintf(format, args...))
}

// touchedPage is a touched page of a space and the oracle's PPN for it.
type touchedPage struct {
	vpn    addr.VPN
	size   addr.PageSize
	ppn    addr.PPN
	mapped bool
}

// touch returns k's touched page, adding it, and marks its space dirty.
func (r *machineRun) touch(k oracleKey) *touchedPage {
	r.dirty[k.asid] = true
	i, ok := r.touchedIdx[k]
	if !ok {
		i = len(r.touched[k.asid])
		r.touchedIdx[k] = i
		r.touched[k.asid] = append(r.touched[k.asid], touchedPage{vpn: k.vpn, size: k.size})
	}
	return &r.touched[k.asid][i]
}

// bind points the MMU at the bound space, flushing its TLBs.
func (r *machineRun) bind() {
	tbl := r.spaces[r.bound]
	if r.org == Radix {
		r.mm.Bind(tbl.(*radix.PageTable))
		return
	}
	r.mm.Bind(probeRecorder{tbl.(mmu.HPTPageTable), &r.walks})
}

// lookup resolves vpn at exactly size s in space asid.
func (r *machineRun) lookup(asid int, vpn addr.VPN, s addr.PageSize) (addr.PPN, bool) {
	switch p := r.spaces[asid].(type) {
	case *radix.PageTable:
		tr, ok := p.Translate(vpn.Addr(s))
		return tr.PPN, ok && tr.Size == s
	case interface {
		TranslateSize(addr.VPN, addr.PageSize) (addr.PPN, bool)
	}:
		return p.TranslateSize(vpn, s)
	}
	r.fatalf("no lookup for %T", r.spaces[asid])
	return 0, false
}

func (r *machineRun) injected() uint64 {
	if r.injector == nil {
		return 0
	}
	return r.injector.Stats().Injected
}

// mapPage maps vpn→ppn at size s as an OS would: a 4KB page under a 2MB
// mapping is not mapped, a 2MB map first unmaps the 4KB pages under it,
// and a remap invalidates the old translation. A failed map changes no
// mapping; one with no allocation-failure policy armed fails the run.
func (r *machineRun) mapPage(asid int, vpn addr.VPN, s addr.PageSize, ppn addr.PPN) bool {
	key := oracleKey{asid, vpn, s}
	switch s {
	case addr.Page4K:
		if _, huge := r.oracle[oracleKey{asid, vpn >> 9, addr.Page2M}]; huge {
			return false
		}
	case addr.Page2M:
		for i := addr.VPN(0); i < 512; i++ {
			if _, ok := r.oracle[oracleKey{asid, vpn<<9 + i, addr.Page4K}]; ok {
				r.unmapPage(asid, vpn<<9+i, addr.Page4K)
			}
		}
	}
	page := r.touch(key)
	before := r.injected()
	if _, err := r.spaces[asid].Map(vpn, s, ppn); err != nil {
		if r.injector == nil {
			r.fatalf("Map(%d, %#x, %v) with no failure policy armed: %v", asid, uint64(vpn), s, err)
		}
		if r.injected() > before {
			r.reach.injectedMapFails++
		}
		return false
	}
	remap := page.mapped
	r.oracle[key] = ppn
	page.ppn, page.mapped = ppn, true
	if remap && asid == r.bound {
		r.mm.Invalidate(vpn.Addr(s), s)
	}
	return true
}

// unmapPage unmaps vpn at size s, then invalidates it if its space is
// bound. Unmap must report a mapping exactly when the oracle holds one.
func (r *machineRun) unmapPage(asid int, vpn addr.VPN, s addr.PageSize) {
	key := oracleKey{asid, vpn, s}
	page := r.touch(key)
	if _, ok := r.spaces[asid].Unmap(vpn, s); ok != page.mapped {
		r.fatalf("Unmap(%d, %#x, %v) = %v, oracle %v", asid, uint64(vpn), s, ok, page.mapped)
	}
	delete(r.oracle, key)
	page.mapped = false
	if asid == r.bound {
		r.mm.Invalidate(vpn.Addr(s), s)
	}
}

// mapBulk maps up to n bulk pages of space asid past its earlier ones,
// one per cluster at sub-index b%8, stopping at the first that fails. A
// single page is checked for §IV-C's accounting like a window map. The
// cluster siblings of the new pages must stay unmapped.
func (r *machineRun) mapBulk(asid, n int, b byte) {
	sub := addr.VPN(b % pt.ClusterSpan)
	var pre mehpt.TableState
	inFlight := false
	if n == 1 {
		pre, inFlight = r.upsizeInFlight(asid, addr.Page4K)
	}
	var fresh []addr.VPN
	for ; n > 0 && len(r.bulk[asid]) < bulkCap; n-- {
		vpn := bulkBase + addr.VPN(len(r.bulk[asid]))*pt.ClusterSpan + sub
		r.bulk[asid] = append(r.bulk[asid], vpn)
		if !r.mapPage(asid, vpn, addr.Page4K, addr.PPN(1<<24+len(r.bulk[asid]))) {
			break
		}
		fresh = append(fresh, vpn)
	}
	if inFlight {
		r.checkStayMove(asid, addr.Page4K, pre)
	}
	for _, vpn := range fresh {
		if ppn, ok := r.lookup(asid, vpn^1, addr.Page4K); ok {
			r.fatalf("unmapped sibling %#x of bulk page translates to %#x", uint64(vpn^1), uint64(ppn))
		}
	}
}

// windowPage decodes a window page from a.
func windowPage(a byte) (addr.VPN, addr.PageSize) {
	if a&0x80 != 0 {
		return window2MBase + addr.VPN(a%window2M), addr.Page2M
	}
	return window4KBase + addr.VPN(a%window4K), addr.Page4K
}

// step runs one decoded op.
func (r *machineRun) step(kind, a, b byte) {
	asid := int(b >> 7)
	switch kind % mopKinds {
	case mopMap, mopMap2:
		if a&0xC0 == 0x40 {
			r.mapBulk(asid, 1, b)
			break
		}
		vpn, s := windowPage(a)
		pre, inFlight := r.upsizeInFlight(asid, s)
		r.mapPage(asid, vpn, s, addr.PPN(uint64(b&0x7F)<<12|uint64(r.op)&0xFFF))
		if inFlight {
			r.checkStayMove(asid, s, pre)
		}
	case mopBulk:
		r.mapBulk(asid, 64+32*int(a), b)
	case mopUnmap:
		if a&0x40 != 0 && len(r.bulk[asid]) > 0 {
			bulk := r.bulk[asid]
			r.unmapPage(asid, bulk[(int(a&0x3F)<<8|int(b))%len(bulk)], addr.Page4K)
			break
		}
		vpn, s := windowPage(a)
		r.unmapPage(asid, vpn, s)
	case mopTranslate:
		r.translate(int(a)%(mmu.BatchWidth+1), b)
	case mopSwitch:
		r.bound = int(a & 1)
		r.bind()
	case mopInject:
		if r.injector != nil {
			r.alloc.Hook = nil
			r.injector = nil
			break
		}
		r.injector = inject.Attach(r.alloc, inject.EveryNth{N: 1 + uint64(a%4)})
	case mopCheckpoint:
		r.checkpoint(asid, a&1 != 0)
	case mopScrub:
		r.scrub()
	}
}

// translate runs a batch of width addresses of the bound space through
// TranslateBatchPAs and TranslateWalk, as the engine does. A mapped
// address must give the oracle's PA, and an unmapped one must fault.
func (r *machineRun) translate(width int, seed byte) {
	rng := rand.New(rand.NewSource(int64(seed)<<16 | int64(r.op)))
	vas := make([]addr.VirtAddr, width)
	bulk := r.bulk[r.bound]
	for i := range vas {
		var vpn addr.VPN
		s := addr.Page4K
		switch c := rng.Intn(8); {
		case c < 3:
			vpn = window4KBase + addr.VPN(rng.Intn(window4K))
		case c < 5:
			vpn, s = window2MBase+addr.VPN(rng.Intn(window2M)), addr.Page2M
		case c < 7 && len(bulk) > 0:
			vpn = bulk[rng.Intn(len(bulk))] ^ addr.VPN(c&1) // a bulk page or its sibling
		default:
			vpn = addr.VPN(rng.Int63n(1 << 35))
		}
		vas[i] = vpn.Addr(s) + addr.VirtAddr(rng.Int63n(int64(s.Bytes())))
	}
	r.dirty[r.bound] = true
	r.walks, r.walked = r.walks[:0], r.walked[:0]
	var pas [mmu.BatchWidth]addr.PhysAddr
	for pos := 0; pos < len(vas); {
		n, _, missLat := r.mm.TranslateBatchPAs(vas[pos:], pas[:])
		for i := 0; i < n; i++ {
			r.checkPA(vas[pos+i], mmu.Result{PA: pas[i]})
		}
		if pos += n; pos == len(vas) {
			break
		}
		res := r.mm.TranslateWalk(vas[pos], missLat)
		r.checkPA(vas[pos], res)
		r.walked = append(r.walked, vas[pos])
		pos++
	}
	r.checkProbes()
}

func (r *machineRun) checkPA(va addr.VirtAddr, res mmu.Result) {
	if pa, _, ok := r.oracle.translate(r.bound, va); ok == res.Fault || ok && res.PA != pa {
		r.fatalf("space %d va %#x: MMU gave %+v, oracle %#x,%v", r.bound, uint64(va), res, uint64(pa), ok)
	}
}

// ownedBlocks returns the physical blocks space asid's table owns, as
// [start, end) byte ranges.
func (r *machineRun) ownedBlocks(asid int) [][2]addr.PhysAddr {
	var blocks [][2]addr.PhysAddr
	r.spaces[asid].VisitOwnedFrames(func(base addr.PPN, bytes uint64) {
		start := base.Addr(addr.Page4K)
		blocks = append(blocks, [2]addr.PhysAddr{start, start + addr.PhysAddr(bytes)})
	})
	return blocks
}

func inBlocks(blocks [][2]addr.PhysAddr, pa addr.PhysAddr) bool {
	for _, b := range blocks {
		if pa >= b[0] && pa < b[1] {
			return true
		}
	}
	return false
}

// checkProbes checks the last translate op's walks: every probe address
// lies in a frame the bound table owns, and a hashed walk probes the slot
// where the table's State holds the cluster.
func (r *machineRun) checkProbes() {
	if len(r.walked) == 0 {
		return
	}
	owned := r.ownedBlocks(r.bound)
	if p, ok := r.spaces[r.bound].(*radix.PageTable); ok {
		for _, va := range r.walked {
			pas, _, _ := p.AppendWalkAddrs(nil, va)
			for _, pa := range pas {
				if !inBlocks(owned, pa) {
					r.fatalf("radix walk of %#x reads %#x, in no frame the table owns", uint64(va), uint64(pa))
				}
			}
		}
		return
	}
	var states [addr.NumPageSizes]any // per-size table States, captured once
	for _, w := range r.walks {
		if !inBlocks(owned, w.probe) || !inBlocks(owned, w.probe+pt.EntryBytes-1) {
			r.fatalf("walk of %#x probes %#x, in no frame the table owns", uint64(w.va), uint64(w.probe))
		}
		if states[w.tr.Size] == nil {
			switch p := r.spaces[r.bound].(type) {
			case *ecpt.PageTable:
				states[w.tr.Size] = p.Table(w.tr.Size).State()
			case *mehpt.PageTable:
				states[w.tr.Size] = p.Table(w.tr.Size).State()
			}
		}
		key := pt.ClusterKey(w.va.PageNumber(w.tr.Size))
		if want, ok := r.slotPA(states[w.tr.Size], key); ok && w.probe != want {
			r.fatalf("walk of %#x probes %#x, but the table holds its cluster at %#x", uint64(w.va), uint64(w.probe), uint64(want))
		}
	}
}

// slotPA returns the physical address of the slot holding key in a
// per-size table's State: for ECPT the way group's base plus the slot
// offset, for ME-HPT the slot's offset resolved through the way's chunk
// list (the pending store's for slots an out-of-place resize has
// migrated). It reports false for an ME-HPT cluster in the software stash,
// which no slot holds.
func (r *machineRun) slotPA(state any, key uint64) (addr.PhysAddr, bool) {
	switch st := state.(type) {
	case ecpt.TableState:
		find := func(ways []cuckoo.WayState, g ecpt.GroupState) (addr.PhysAddr, bool) {
			for wi, w := range ways {
				if idx := slices.IndexFunc(w.Slots, func(e cuckoo.Entry) bool { return e.Key == key }); idx >= 0 {
					return g.Bases[wi].Addr(addr.Page4K) + addr.PhysAddr(idx*pt.EntryBytes), true
				}
			}
			return 0, false
		}
		if pa, ok := find(st.Cuckoo.Cur, st.Groups[0]); ok {
			return pa, true
		}
		if pa, ok := find(st.Cuckoo.Next, st.Groups[len(st.Groups)-1]); ok {
			return pa, true
		}
		r.fatalf("walked ECPT cluster %#x is in no slot", key)
	case mehpt.TableState:
		for _, w := range st.Ways {
			idx := uint64(slices.IndexFunc(w.Slots, func(e cuckoo.Entry) bool { return e.Key == key }))
			if idx == ^uint64(0) {
				continue
			}
			store := w.Store
			if w.Pending != nil && (w.Up && (idx >= w.Size || idx < w.Ptr) || !w.Up && idx < w.NewSize && idx < w.Ptr) {
				store = *w.Pending
			}
			off := idx * pt.EntryBytes
			return store.Chunks[off/store.ChunkBytes].Addr(addr.Page4K) + addr.PhysAddr(off%store.ChunkBytes), true
		}
		if !slices.ContainsFunc(st.Stash, func(e cuckoo.Entry) bool { return e.Key == key }) {
			r.fatalf("walked ME-HPT cluster %#x is in no slot and not in the stash", key)
		}
	}
	return 0, false
}

// tableState captures space asid's table.
func (r *machineRun) tableState(asid int) *TableState {
	switch p := r.spaces[asid].(type) {
	case *radix.PageTable:
		st := p.State()
		return &TableState{Radix: &st}
	case *ecpt.PageTable:
		st := p.State()
		return &TableState{ECPT: &st}
	case *mehpt.PageTable:
		st := p.State()
		return &TableState{MEHPT: &st}
	}
	r.fatalf("no state for %T", r.spaces[asid])
	return nil
}

// resizing reports whether any of space asid's per-size tables has a
// resize in flight.
func (r *machineRun) resizing(asid int) bool {
	switch p := r.spaces[asid].(type) {
	case *ecpt.PageTable:
		return slices.ContainsFunc(p.LiveTables(), func(t *ecpt.Table) bool { return t.State().Cuckoo.Next != nil })
	case *mehpt.PageTable:
		return slices.ContainsFunc(p.LiveTables(), (*mehpt.Table).Resizing)
	}
	return false
}

// checkpoint restores space asid from its State over the same allocator,
// as a resumed machine does, and rebinds it if bound. With stash, an
// ME-HPT space first moves one way entry to the software stash in the
// captured state, as a degraded transition leaves it.
func (r *machineRun) checkpoint(asid int, stash bool) {
	if r.resizing(asid) {
		r.reach.midResizeRestore++
	}
	st := r.tableState(asid)
	if stash && st.MEHPT != nil {
		for ti := range st.MEHPT.Tables {
			ts := &st.MEHPT.Tables[ti]
			w := &ts.Ways[0]
			if i := slices.IndexFunc(w.Slots, func(e cuckoo.Entry) bool { return e.Key != cuckoo.EmptyKey }); i >= 0 {
				ts.Stash = append(ts.Stash, w.Slots[i])
				w.Slots[i] = cuckoo.Entry{Key: cuckoo.EmptyKey}
				w.Occ--
				r.reach.stashRestores++
				break
			}
		}
	}
	tbl, err := OpenTable(r.org, r.alloc, r.hashSeed(asid), r.newRand(int64(r.op)), nil, st)
	if err != nil {
		r.fatalf("restore of space %d: %v", asid, err)
	}
	r.spaces[asid] = tbl.(fuzzTable)
	r.dirty[asid] = true
	if asid == r.bound {
		r.bind()
	}
}

// scrub runs every table's structural checks and requires the two spaces
// to own disjoint frames.
func (r *machineRun) scrub() {
	for asid, tbl := range r.spaces {
		if bad := tbl.CheckTables(); len(bad) > 0 {
			r.fatalf("space %d: %v", asid, bad)
		}
	}
	other := r.ownedBlocks(1)
	for _, b := range r.ownedBlocks(0) {
		for _, o := range other {
			if b[0] < o[1] && o[0] < b[1] {
				r.fatalf("spaces share frames: %#x-%#x and %#x-%#x", uint64(b[0]), uint64(b[1]), uint64(o[0]), uint64(o[1]))
			}
		}
	}
}

// check runs after every op: in every space the op may have changed,
// every touched page translates exactly as the oracle says and the ME-HPT
// tables keep the paper's invariants; and every resident TLB entry holds
// the bound space's oracle PPN at its cached size.
func (r *machineRun) check() {
	for asid, dirty := range r.dirty {
		if !dirty {
			continue
		}
		r.dirty[asid] = false
		for _, p := range r.touched[asid] {
			if got, ok := r.lookup(asid, p.vpn, p.size); ok != p.mapped || ok && got != p.ppn {
				r.fatalf("space %d %v page %#x translates to %#x,%v; oracle %#x,%v",
					asid, p.size, uint64(p.vpn), uint64(got), ok, uint64(p.ppn), p.mapped)
			}
		}
		if p, ok := r.spaces[asid].(*mehpt.PageTable); ok {
			r.checkMEHPT(p)
		}
	}
	r.mm.TLB.VisitEntries(func(vpn addr.VPN, s addr.PageSize, level int, pay uint64) {
		if ppn, ok := r.oracle[oracleKey{r.bound, vpn, s}]; !ok || uint64(ppn) != pay {
			r.fatalf("L%d TLB caches %v page %#x as PPN %#x; oracle %#x,%v", level, s, uint64(vpn), pay, uint64(ppn), ok)
		}
	})
}

// checkMEHPT checks the paper's ME-HPT invariants: no way holds more than
// twice the slots of another (§IV-D: a way upsizes only while it is the
// smallest), every L2P subtable stays within its limit of at most 64
// entries (§V-A), and every chunk, a pending store's included, is a rung
// of the 8KB/1MB/8MB/64MB ladder.
func (r *machineRun) checkMEHPT(p *mehpt.PageTable) {
	l := p.L2P()
	for way := 0; way < l.Ways(); way++ {
		for _, s := range addr.Sizes() {
			if used, limit := l.Used(way, s), l.Limit(way, s); used > limit || limit > l2p.StolenMax {
				r.fatalf("L2P way %d %v: %d entries used, limit %d", way, s, used, limit)
			}
		}
	}
	for _, t := range p.LiveTables() {
		sizes := t.WaySizes()
		if slices.Max(sizes) > 2*slices.Min(sizes) {
			r.fatalf("%v ways unbalanced: %v slots", t.PageSize(), sizes)
		}
		chunks := t.WayChunkBytes()
		if t.Resizing() {
			for _, w := range t.State().Ways {
				if w.Pending != nil {
					chunks = append(chunks, w.Pending.ChunkBytes)
				}
			}
		}
		for _, c := range chunks {
			if !slices.Contains(chunk.Ladder, c) {
				r.fatalf("%v way chunk of %d bytes is off the ladder", t.PageSize(), c)
			}
		}
	}
}

// upsizeInFlight returns the State of space asid's ME-HPT table of size s
// when it has a resize in flight and every resizing way is upsizing in
// place.
func (r *machineRun) upsizeInFlight(asid int, s addr.PageSize) (mehpt.TableState, bool) {
	p, ok := r.spaces[asid].(*mehpt.PageTable)
	if !ok || p.Table(s) == nil || !p.Table(s).Resizing() {
		return mehpt.TableState{}, false
	}
	st := p.Table(s).State()
	for _, w := range st.Ways {
		if w.Resizing && (!w.Up || w.Pending != nil) {
			return mehpt.TableState{}, false
		}
	}
	return st, true
}

// checkStayMove checks §IV-C's accounting across a single map, given the
// table's State before it, when in-place upsizes were in flight. If the
// same upsizes are still in flight after the map, and the map kicked,
// stalled and transitioned nothing, each resizing way's rehash pointer
// advance from p0 to p1 processed exactly the entries in its old slots
// [p0, p1): each either stayed in its slot i or moved to i+n, n the way's
// old size. So, summed over the resizing ways, exactly
//
//	ΔUpsizeStayed = #{i ∈ [p0,p1) occupied before : slot i holds the same key after}
//	ΔUpsizeMoved  = #{i ∈ [p0,p1) occupied before : slot i+n holds it after}
//	ΔUpsizeStayed + ΔUpsizeMoved = #{i ∈ [p0,p1) occupied before}
//	ΔMovesTotal   = ΔUpsizeMoved
func (r *machineRun) checkStayMove(asid int, s addr.PageSize, pre mehpt.TableState) {
	post, ok := r.upsizeInFlight(asid, s)
	if !ok || post.Stats.Kicks != pre.Stats.Kicks || post.Stats.Stalls != pre.Stats.Stalls ||
		post.Stats.Transitions != pre.Stats.Transitions {
		return
	}
	var processed, stayed, moved uint64
	for wi, before := range pre.Ways {
		after := post.Ways[wi]
		if after.Resizing != before.Resizing || after.NewSize != before.NewSize || after.Ptr < before.Ptr {
			return
		}
		if !before.Resizing {
			continue
		}
		for i := before.Ptr; i < after.Ptr; i++ {
			k := before.Slots[i].Key
			if k == cuckoo.EmptyKey {
				continue
			}
			processed++
			if after.Slots[i].Key == k {
				stayed++
			}
			if after.Slots[i+before.Size].Key == k {
				moved++
			}
		}
	}
	dStayed := post.Stats.UpsizeStayed - pre.Stats.UpsizeStayed
	dMoved := post.Stats.UpsizeMoved - pre.Stats.UpsizeMoved
	dMoves := post.Stats.MovesTotal - pre.Stats.MovesTotal
	if dStayed != stayed || dMoved != moved || stayed+moved != processed || dMoves != dMoved {
		r.fatalf("§IV-C: %d entries processed, %d stayed and %d moved; stats count %d stayed, %d moved, %d moves",
			processed, stayed, moved, dStayed, dMoved, dMoves)
	}
	if processed > 0 {
		r.reach.stayMoveChecks++
	}
}

// finish scrubs the machine and tallies its resize counters.
func (r *machineRun) finish() machineReach {
	r.scrub()
	for _, tbl := range r.spaces {
		switch p := tbl.(type) {
		case *ecpt.PageTable:
			for _, t := range p.LiveTables() {
				r.reach.upsizes += t.ScalarStats().Upsizes
			}
		case *mehpt.PageTable:
			for _, t := range p.LiveTables() {
				st := t.Stats()
				for _, n := range st.UpsizesPerWay {
					r.reach.upsizes += n
				}
				r.reach.inPlaceStays += st.UpsizeStayed
				r.reach.transitions += st.Transitions
			}
		}
	}
	return r.reach
}

// runMachineOps runs data's ops on org's machine, checking it after every
// op, and returns what the run reached.
func runMachineOps(t *testing.T, org Org, data []byte) machineReach {
	r := newMachineRun(t, org)
	for i := 0; i+3 <= len(data) && i < 3*maxMachineOps; i += 3 {
		r.op = i / 3
		r.step(data[i], data[i+1], data[i+2])
		r.check()
	}
	return r.finish()
}

// machineOpsSeeds are hand-written op sequences, run as tier-1 tests.
func machineOpsSeeds() [][]byte {
	const huge, bulk, space1 = 0x80, 0x40, 0x80
	op := func(kind, a, b byte) []byte { return []byte{kind, a, b} }
	return [][]byte{
		// Map, translate (TLB fill), remap, translate, unmap, translate:
		// a stale TLB entry after the remap or the unmap is caught.
		slices.Concat(op(mopMap, 3, 1), op(mopTranslate, 64, 1), op(mopMap, 3, 2), op(mopTranslate, 64, 1),
			op(mopUnmap, 3, 0), op(mopTranslate, 64, 1), op(mopScrub, 0, 0)),
		// A 2MB map promotes over mapped 4KB pages; the other space maps
		// the same addresses; switching flushes the TLBs.
		slices.Concat(op(mopMap, 12, 1), op(mopMap, 13, 2), op(mopTranslate, 64, 3), op(mopMap, huge|3, 3),
			op(mopTranslate, 64, 3), op(mopMap, 12, space1|4), op(mopSwitch, 1, 0), op(mopTranslate, 64, 5),
			op(mopUnmap, huge|3, 0), op(mopSwitch, 0, 0), op(mopTranslate, 64, 6)),
		// Bulk maps, a checkpoint with a stash-resident cluster, then
		// translates that walk it.
		slices.Concat(op(mopBulk, 20, 3), op(mopMap, 1, 1), op(mopCheckpoint, 1, 0), op(mopTranslate, 64, 7),
			op(mopTranslate, 64, 8), op(mopUnmap, bulk|1, 9), op(mopScrub, 0, 0)),
		// Maps that fail under an armed failure policy, a restore, and a
		// disarm.
		slices.Concat(op(mopInject, 0, 0), op(mopBulk, 60, 1), op(mopMap, huge|1, 1), op(mopCheckpoint, 0, 0),
			op(mopInject, 0, 0), op(mopBulk, 60, 1), op(mopTranslate, 64, 2)),
	}
}

// FuzzMachineOps decodes the input into ops on a whole machine — map,
// bulk map, unmap, translate a batch, switch address space, arm or disarm
// an allocation-failure policy, checkpoint→restore, scrub — and runs them
// on Radix, ECPT and ME-HPT, each with two address spaces over one
// allocator behind one MMU. After every op the machine must match a flat
// oracle (flatOracle) and keep the paper's invariants (see check,
// checkMEHPT and checkStayMove); a translate op also checks every walk's
// probe address (checkProbes), which no fingerprint prices.
func FuzzMachineOps(f *testing.F) {
	for _, s := range machineOpsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, org := range []Org{Radix, ECPT, MEHPT} {
			runMachineOps(t, org, data)
		}
	})
}

// machineOpsInput generates a seeded input of n ops, weighted towards
// maps and translates, with enough bulk maps for tables to upsize and
// ME-HPT ways to change chunk size.
func machineOpsInput(seed int64, n int) []byte {
	weights := [mopKinds]int{mopMap: 5, mopMap2: 5, mopBulk: 3, mopUnmap: 4, mopTranslate: 6,
		mopSwitch: 2, mopInject: 2, mopCheckpoint: 3, mopScrub: 1}
	var kinds []byte
	for k, w := range weights {
		for ; w > 0; w-- {
			kinds = append(kinds, byte(k))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		out = append(out, kinds[rng.Intn(len(kinds))]+mopKinds*byte(rng.Intn(256/mopKinds)),
			byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return out
}

// TestMachineOpsSeeded is FuzzMachineOps' seeded tier-1 loop. Beyond the
// per-op checks, it requires by count that, per organization, the inputs
// reach an allocation failure injected into a map and a checkpoint →
// restore; for the hashed organizations, upsizes and a restore taken mid-
// resize; and for ME-HPT an in-place upsize (entries that stayed, and the
// exact §IV-C check), a chunk-size transition, and a stash-resident
// restore. Radix never resizes.
func TestMachineOpsSeeded(t *testing.T) {
	for _, org := range []Org{Radix, ECPT, MEHPT} {
		t.Run(org.String(), func(t *testing.T) {
			var reach machineReach
			for seed := int64(1); seed <= 5; seed++ {
				reach.add(runMachineOps(t, org, machineOpsInput(seed, 120)))
			}
			t.Logf("%+v", reach)
			if reach.injectedMapFails == 0 {
				t.Error("no map failed with an injected allocation failure")
			}
			if org == Radix {
				return
			}
			if reach.upsizes == 0 || reach.midResizeRestore == 0 {
				t.Errorf("upsizes %d, mid-resize restores %d", reach.upsizes, reach.midResizeRestore)
			}
			if org == MEHPT && (reach.inPlaceStays == 0 || reach.stayMoveChecks == 0 ||
				reach.transitions == 0 || reach.stashRestores == 0) {
				t.Errorf("in-place stays %d, §IV-C checks %d, transitions %d, stash restores %d",
					reach.inPlaceStays, reach.stayMoveChecks, reach.transitions, reach.stashRestores)
			}
		})
	}
}
