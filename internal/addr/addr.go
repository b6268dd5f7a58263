// Package addr defines the virtual and physical address types and page-size
// arithmetic shared by every page-table organization in the repository.
//
// The address split follows the x86-64 convention used by the paper:
// 48-bit canonical virtual addresses, 46-bit physical addresses, and three
// translation granularities (4KB, 2MB, and 1GB pages).
package addr

import "fmt"

// Fundamental address widths, matching the configuration in the paper
// (Section V-B sizes the L2P entries for a 46-bit physical address space).
const (
	VirtBits = 48 // canonical x86-64 virtual address width
	PhysBits = 46 // physical address width used to size L2P entries
)

// Byte-size constants. They are untyped so they compose with any integer type.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
	TB = 1 << 40
)

// VirtAddr is a virtual byte address.
type VirtAddr uint64

// PhysAddr is a physical byte address.
type PhysAddr uint64

// VPN is a virtual page number: a virtual address shifted right by the page
// size's offset bits. A VPN is only meaningful together with a PageSize.
type VPN uint64

// PPN is a physical page number (also called a physical frame number).
type PPN uint64

// PageSize enumerates the translation granularities supported by the MMU.
type PageSize int

// The three page sizes from the paper. Their integer values index per-size
// arrays (TLBs, HPTs, CWTs) throughout the codebase.
const (
	Page4K PageSize = iota // 4KB base pages (PTE level)
	Page2M                 // 2MB huge pages (PMD level)
	Page1G                 // 1GB huge pages (PUD level)
	NumPageSizes
)

// pageShift[s] is log2 of the byte size of page size s.
var pageShift = [NumPageSizes]uint{12, 21, 30}

// pageName[s] is the human-readable name of page size s.
var pageName = [NumPageSizes]string{"4KB", "2MB", "1GB"}

// Shift returns log2 of the page size in bytes (12, 21, or 30).
func (s PageSize) Shift() uint { return pageShift[s] }

// Bytes returns the page size in bytes.
func (s PageSize) Bytes() uint64 { return 1 << pageShift[s] }

// Mask returns the in-page offset mask for this page size.
func (s PageSize) Mask() uint64 { return s.Bytes() - 1 }

// Valid reports whether s is one of the three supported page sizes.
func (s PageSize) Valid() bool { return s >= Page4K && s < NumPageSizes }

// String implements fmt.Stringer.
func (s PageSize) String() string {
	if !s.Valid() {
		return fmt.Sprintf("PageSize(%d)", int(s))
	}
	return pageName[s]
}

// sizes backs Sizes so the per-translation size loops do not allocate.
var sizes = [NumPageSizes]PageSize{Page4K, Page2M, Page1G}

// Sizes returns the supported page sizes from smallest to largest.
// The returned slice must not be modified.
func Sizes() []PageSize { return sizes[:] }

// PageNumber returns the VPN of va at page size s.
func (va VirtAddr) PageNumber(s PageSize) VPN {
	return VPN(uint64(va) >> pageShift[s])
}

// Offset returns the in-page byte offset of va at page size s.
func (va VirtAddr) Offset(s PageSize) uint64 {
	return uint64(va) & s.Mask()
}

// Addr returns the first virtual byte address of the page v at size s.
func (v VPN) Addr(s PageSize) VirtAddr {
	return VirtAddr(uint64(v) << pageShift[s])
}

// Addr returns the first physical byte address of the frame p at size s.
func (p PPN) Addr(s PageSize) PhysAddr {
	return PhysAddr(uint64(p) << pageShift[s])
}

// PageNumber returns the PPN of pa at page size s.
func (pa PhysAddr) PageNumber(s PageSize) PPN {
	return PPN(uint64(pa) >> pageShift[s])
}

// Translate combines the frame ppn with the page offset of va at size s,
// producing the full physical address.
func Translate(va VirtAddr, ppn PPN, s PageSize) PhysAddr {
	return PhysAddr(uint64(ppn)<<pageShift[s] | va.Offset(s))
}

// RadixIndex returns the 9-bit radix-tree index of va at the given tree level.
// Level 0 is the leaf (PTE, bits 20:12) and level 3 is the root
// (PGD, bits 47:39), matching Figure 1 of the paper.
func RadixIndex(va VirtAddr, level int) uint {
	return uint(uint64(va)>>(12+9*uint(level))) & 0x1FF
}

// AlignUp rounds va up to a multiple of align, which must be a power of two.
func AlignUp(va VirtAddr, align uint64) VirtAddr {
	return VirtAddr((uint64(va) + align - 1) &^ (align - 1))
}
