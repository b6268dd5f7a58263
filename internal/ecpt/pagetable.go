package ecpt

import (
	"repro/internal/addr"
	"repro/internal/phys"
	"repro/internal/pt"
)

// PageTable is a process's complete ECPT: the shared multi-size hashed page
// table (pt.Hashed) over one ECPT Table per page size. Per-page-size tables
// are created lazily on first mapping (as in ME-HPT), except the 4KB table,
// which every process needs immediately — creating it eagerly surfaces
// contiguous-allocation failures at process start, the paper's "program
// failure" scenario.
type PageTable struct {
	pt.Hashed[*Table]
}

// newPageTable returns a page table with no per-size tables yet.
func newPageTable(alloc phys.Source, cfg Config) *PageTable {
	return &PageTable{pt.NewHashed(func(s addr.PageSize) (*Table, error) {
		return NewTable(s, alloc, cfg)
	})}
}

// NewPageTable creates a process's ECPT with its initial 4KB table.
func NewPageTable(alloc phys.Source, cfg Config) (*PageTable, error) {
	p := newPageTable(alloc, cfg)
	if _, err := p.Ensure(addr.Page4K); err != nil {
		return nil, err
	}
	return p, nil
}
