package tlb

import (
	"reflect"
	"testing"

	"repro/internal/addr"
)

// refEntry is one resident translation of the reference model.
type refEntry struct {
	vpn addr.VPN
	pay uint64
}

// refTLB is the naive reference model of one TLB: each set a slice of
// resident entries, MRU first, updated by copy-shift. It shares no code
// with TLB.
type refTLB struct {
	sets    [][]refEntry
	ways    int
	latency uint64
}

// newRefTLB applies New's geometry rule: a Ways value of 0 or above
// Entries makes the TLB fully associative.
func newRefTLB(cfg Config) *refTLB {
	ways := cfg.Ways
	if ways <= 0 || ways > cfg.Entries {
		ways = cfg.Entries
	}
	sets := cfg.Entries / ways
	if sets == 0 {
		sets = 1
	}
	return &refTLB{sets: make([][]refEntry, sets), ways: ways, latency: cfg.Latency}
}

func (r *refTLB) set(vpn addr.VPN) *[]refEntry { return &r.sets[uint64(vpn)%uint64(len(r.sets))] }

// index returns vpn's position in its set, or -1.
func (r *refTLB) index(vpn addr.VPN) int {
	for i, e := range *r.set(vpn) {
		if e.vpn == vpn {
			return i
		}
	}
	return -1
}

// front moves entry i of vpn's set to the front.
func (r *refTLB) front(vpn addr.VPN, i int) {
	set := *r.set(vpn)
	e := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = e
}

func (r *refTLB) lookup(vpn addr.VPN) (uint64, bool) {
	i := r.index(vpn)
	if i < 0 {
		return 0, false
	}
	r.front(vpn, i)
	return (*r.set(vpn))[0].pay, true
}

func (r *refTLB) insert(vpn addr.VPN, pay uint64) {
	if i := r.index(vpn); i >= 0 {
		(*r.set(vpn))[i].pay = pay
		r.front(vpn, i)
		return
	}
	set := r.set(vpn)
	if len(*set) < r.ways {
		*set = append(*set, refEntry{})
	}
	copy((*set)[1:], *set)
	(*set)[0] = refEntry{vpn, pay}
}

func (r *refTLB) invalidate(vpn addr.VPN) {
	if i := r.index(vpn); i >= 0 {
		set := r.set(vpn)
		*set = append((*set)[:i], (*set)[i+1:]...)
	}
}

// refHierarchy is the reference model of a Hierarchy: per page size, an
// L1 refilled from L2 on an L2 hit; LookupVA tries the sizes in ascending
// order and reports the largest miss latency on a full miss.
type refHierarchy struct {
	l1, l2 [addr.NumPageSizes]*refTLB
}

// refOf returns a reference model with the geometry of h's TLBs, all
// empty.
func refOf(h *Hierarchy) *refHierarchy {
	r := &refHierarchy{}
	for s := range h.l1 {
		r.l1[s], r.l2[s] = newRefTLB(h.l1[s].cfg), newRefTLB(h.l2[s].cfg)
	}
	return r
}

func (r *refHierarchy) lookup(va addr.VirtAddr, s addr.PageSize) (Result, uint64, uint64) {
	vpn := va.PageNumber(s)
	l1, l2 := r.l1[s], r.l2[s]
	if pay, ok := l1.lookup(vpn); ok {
		return HitL1, pay, l1.latency
	}
	if pay, ok := l2.lookup(vpn); ok {
		l1.insert(vpn, pay)
		return HitL2, pay, l1.latency + l2.latency
	}
	return MissAll, 0, l1.latency + l2.latency
}

func (r *refHierarchy) lookupVA(va addr.VirtAddr) (Result, addr.PageSize, uint64, uint64) {
	var miss uint64
	for _, s := range addr.Sizes() {
		res, pay, lat := r.lookup(va, s)
		if res != MissAll {
			return res, s, pay, lat
		}
		miss = max(miss, lat)
	}
	return MissAll, 0, 0, miss
}

func (r *refHierarchy) insert(va addr.VirtAddr, s addr.PageSize, pay uint64) {
	r.l1[s].insert(va.PageNumber(s), pay)
	r.l2[s].insert(va.PageNumber(s), pay)
}

func (r *refHierarchy) invalidate(va addr.VirtAddr, s addr.PageSize) {
	r.l1[s].invalidate(va.PageNumber(s))
	r.l2[s].invalidate(va.PageNumber(s))
}

func (r *refHierarchy) flush() {
	for s := range r.l1 {
		for _, t := range []*refTLB{r.l1[s], r.l2[s]} {
			for i := range t.sets {
				t.sets[i] = nil
			}
		}
	}
}

// visited is one VisitEntries callback.
type visited struct {
	vpn   addr.VPN
	size  addr.PageSize
	level int
	pay   uint64
}

// entries lists what Hierarchy.VisitEntries must report, in its order:
// per page size L1 then L2, sets in index order, each set MRU first.
func (r *refHierarchy) entries() []visited {
	var out []visited
	for s := range r.l1 {
		for level, t := range []*refTLB{r.l1[s], r.l2[s]} {
			for _, set := range t.sets {
				for _, e := range set {
					out = append(out, visited{e.vpn, addr.PageSize(s), level + 1, e.pay})
				}
			}
		}
	}
	return out
}

// checkRef fails the test unless every TLB's resident entries, in recency
// order, equal the reference model's.
func checkRef(t *testing.T, op int, h *Hierarchy, ref *refHierarchy) {
	t.Helper()
	var got []visited
	h.VisitEntries(func(vpn addr.VPN, s addr.PageSize, level int, pay uint64) {
		got = append(got, visited{vpn, s, level, pay})
	})
	if want := ref.entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("op %d: VisitEntries differs from the reference:\n got %v\nwant %v", op, got, want)
	}
}
