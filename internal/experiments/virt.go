package experiments

import (
	"io"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/nested"
	"repro/internal/osmodel"
	"repro/internal/phys"
	"repro/internal/runner"
	"repro/internal/sim"
)

// VirtRow compares two-dimensional (virtualized) walks: nested radix vs
// nested hashed page tables (Section V-C's virtualization argument and the
// nested-ECPT follow-up the paper cites).
type VirtRow struct {
	Config       string
	AvgAccesses  float64 // memory accesses per 2D walk
	AvgWalkCycle float64
}

// Virtualization measures nested-walk costs over a scattered guest
// footprint of the given page count.
func Virtualization(o Options, pages int) []VirtRow {
	build := func(org sim.Org) *nested.MMU {
		table := func(alloc phys.Source, seed int64) osmodel.PageTable {
			newRand := func() rand.Source { return rand.NewSource(seed) }
			t, _ := sim.OpenTable(org, alloc, uint64(seed), newRand, nil, nil) //mehpt:allow errwrap -- fresh dedicated allocator cannot be out of memory
			return t
		}
		hostAlloc := phys.NewAllocator(phys.NewMemory(4*addr.GB), 0)
		guestAlloc := phys.NewAllocator(phys.NewMemory(2*addr.GB), 0)
		mem := cache.NewHierarchy(cache.TableIII())
		guest, host := table(guestAlloc, o.Seed), table(hostAlloc, o.Seed+1)
		for g := addr.VPN(0); g < 1<<19; g++ {
			if _, err := host.Map(g, addr.Page4K, addr.PPN(uint64(g)+0x100000)); err != nil {
				return nil
			}
		}
		base := addr.VirtAddr(0x7000_0000_0000)
		for i := 0; i < pages; i++ {
			va := base + addr.VirtAddr(uint64(i)*2048*4096)
			if _, err := guest.Map(va.PageNumber(addr.Page4K), addr.Page4K, addr.PPN(1000+i)); err != nil {
				return nil
			}
		}
		m := nested.NewMMU(guest, host, mem)
		for i := 0; i < pages; i++ {
			m.Translate(base + addr.VirtAddr(uint64(i)*2048*4096))
		}
		return m
	}

	configs := []struct {
		name string
		org  sim.Org
	}{{"nested radix (2D tree)", sim.Radix}, {"nested ME-HPT", sim.MEHPT}}
	built := runner.Map(o.Parallel, configs, func(_ int, cfg struct {
		name string
		org  sim.Org
	}) *nested.MMU {
		return build(cfg.org)
	})
	var rows []VirtRow
	for i, cfg := range configs {
		m := built[i]
		if m == nil {
			continue
		}
		st := m.Stats()
		if st.Walks == 0 {
			continue
		}
		rows = append(rows, VirtRow{
			Config:       cfg.name,
			AvgAccesses:  float64(st.WalkAccesses) / float64(st.Walks),
			AvgWalkCycle: float64(st.WalkCycles) / float64(st.Walks),
		})
	}
	return rows
}

// FprintVirtualization renders the nested-walk comparison.
func FprintVirtualization(w io.Writer, rows []VirtRow) {
	fprintf(w, "Section V-C virtualization: two-dimensional walk cost\n")
	fprintf(w, "%-24s %14s %14s\n", "Configuration", "accesses/walk", "cycles/walk")
	for _, r := range rows {
		fprintf(w, "%-24s %14.1f %14.0f\n", r.Config, r.AvgAccesses, r.AvgWalkCycle)
	}
	fprintf(w, "A 2D radix walk needs up to 24 dependent accesses; nested hashed walks stay flat.\n")
}
