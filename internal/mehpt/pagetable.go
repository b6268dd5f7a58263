package mehpt

import (
	"repro/internal/addr"
	"repro/internal/l2p"
	"repro/internal/phys"
	"repro/internal/pt"
)

// PageTable is a process's complete ME-HPT: the shared multi-size hashed
// page table (pt.Hashed) over one ME-HPT Table per supported page size,
// plus the process's L2P table.
//
// Per-page-size tables are created lazily on the first mapping at that
// size: a process that never uses, say, 1GB pages holds no chunks and no
// L2P entries for them. This matters beyond memory thrift — an unused 1GB
// subtable is what lets a 4KB subtable steal its L2P region and grow to 64
// chunks (Section V-A; GUPS needs exactly this to stay on 1MB chunks).
type PageTable struct {
	pt.Hashed[*Table]
	l2pTbl *l2p.Table
}

// newPageTable returns a page table with no per-size tables yet.
func newPageTable(alloc phys.Source, cfg Config) *PageTable {
	tbl := l2p.New(cfg.Ways)
	return &PageTable{
		Hashed: pt.NewHashed(func(s addr.PageSize) (*Table, error) {
			return NewTable(s, alloc, tbl, cfg)
		}),
		l2pTbl: tbl,
	}
}

// NewPageTable creates a process's ME-HPT. No physical memory is allocated
// until the first mapping of each page size.
func NewPageTable(alloc phys.Source, cfg Config) (*PageTable, error) {
	if cfg.Ways < 2 {
		panic("mehpt: need at least 2 ways")
	}
	return newPageTable(alloc, cfg), nil
}

// L2P returns the process's L2P table.
func (p *PageTable) L2P() *l2p.Table { return p.l2pTbl }

// L2PSaveRestoreEntries returns the number of valid L2P entries a context
// switch must save and restore (Section V-C).
func (p *PageTable) L2PSaveRestoreEntries() int { return p.l2pTbl.SaveRestoreEntries() }
