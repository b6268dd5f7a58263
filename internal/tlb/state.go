package tlb

import "repro/internal/addr"

// VisitEntries calls f for every VPN currently resident in the TLB along
// with its cached payload, each set in recency order (MRU first). Tags
// store VPN+1 with 0 marking empty, and empties are a suffix of each
// set's ring.
func (t *TLB) VisitEntries(f func(vpn addr.VPN, pay uint64)) {
	for si := uint64(0); si < t.sets; si++ {
		tags, pays, h := t.ring(si)
		for k := range tags {
			p := (h + k) % len(tags)
			if tags[p] == 0 {
				break
			}
			f(addr.VPN(tags[p]-1), pays[p])
		}
	}
}

// VisitEntries calls f for every resident translation in the hierarchy,
// tagged with its page size, level (1 or 2), and cached payload. The
// scrubber uses it to prove every cached translation still resolves in the
// bound page table — including that the cached PPN matches what the table
// resolves today.
func (h *Hierarchy) VisitEntries(f func(vpn addr.VPN, s addr.PageSize, level int, pay uint64)) {
	for s := range h.l1 {
		size := addr.PageSize(s)
		h.l1[s].VisitEntries(func(vpn addr.VPN, pay uint64) { f(vpn, size, 1, pay) })
		h.l2[s].VisitEntries(func(vpn addr.VPN, pay uint64) { f(vpn, size, 2, pay) })
	}
}
