package addr

import (
	"testing"
	"testing/quick"
)

func TestPageSizeBytes(t *testing.T) {
	cases := []struct {
		s    PageSize
		want uint64
	}{
		{Page4K, 4 * KB},
		{Page2M, 2 * MB},
		{Page1G, 1 * GB},
	}
	for _, c := range cases {
		if got := c.s.Bytes(); got != c.want {
			t.Errorf("%v.Bytes() = %d, want %d", c.s, got, c.want)
		}
		if got := uint64(1) << c.s.Shift(); got != c.want {
			t.Errorf("1<<%v.Shift() = %d, want %d", c.s, got, c.want)
		}
		if got := c.s.Mask(); got != c.want-1 {
			t.Errorf("%v.Mask() = %#x, want %#x", c.s, got, c.want-1)
		}
	}
}

func TestPageSizeString(t *testing.T) {
	if Page4K.String() != "4KB" || Page2M.String() != "2MB" || Page1G.String() != "1GB" {
		t.Errorf("unexpected page size names: %v %v %v", Page4K, Page2M, Page1G)
	}
	if got := PageSize(7).String(); got != "PageSize(7)" {
		t.Errorf("invalid size String() = %q", got)
	}
	if PageSize(7).Valid() {
		t.Error("PageSize(7).Valid() = true, want false")
	}
}

func TestSizesOrdering(t *testing.T) {
	sz := Sizes()
	if len(sz) != int(NumPageSizes) {
		t.Fatalf("Sizes() len = %d, want %d", len(sz), NumPageSizes)
	}
	for i := 1; i < len(sz); i++ {
		if sz[i-1].Bytes() >= sz[i].Bytes() {
			t.Errorf("Sizes() not ascending at %d: %v >= %v", i, sz[i-1], sz[i])
		}
	}
}

func TestPageNumberAndOffset(t *testing.T) {
	va := VirtAddr(0x7f00_1234_5678)
	if got := va.PageNumber(Page4K); got != VPN(0x7f00_1234_5678>>12) {
		t.Errorf("PageNumber(4K) = %#x", got)
	}
	if got := va.Offset(Page4K); got != 0x678 {
		t.Errorf("Offset(4K) = %#x, want 0x678", got)
	}
	if got := va.Offset(Page2M); got != 0x7f00_1234_5678&(2*MB-1) {
		t.Errorf("Offset(2M) = %#x", got)
	}
}

func TestTranslateRoundTrip(t *testing.T) {
	f := func(va uint64, ppn uint32) bool {
		va &= (1 << VirtBits) - 1
		for _, s := range Sizes() {
			v := VirtAddr(va)
			pa := Translate(v, PPN(ppn), s)
			if pa.PageNumber(s) != PPN(ppn) {
				return false
			}
			if uint64(pa)&s.Mask() != v.Offset(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVPNAddrRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		for _, s := range Sizes() {
			if VPN(v).Addr(s).PageNumber(s) != VPN(v) {
				return false
			}
			if PPN(v).Addr(s).PageNumber(s) != PPN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRadixIndex(t *testing.T) {
	// Construct an address with distinct 9-bit fields per level.
	var va uint64
	fields := []uint{0x1A3, 0x0B7, 0x155, 0x0FF} // PGD..PTE (levels 3..0)
	va |= uint64(fields[0]) << 39
	va |= uint64(fields[1]) << 30
	va |= uint64(fields[2]) << 21
	va |= uint64(fields[3]) << 12
	for lvl := 0; lvl < 4; lvl++ {
		want := fields[3-lvl]
		if got := RadixIndex(VirtAddr(va), lvl); got != want {
			t.Errorf("RadixIndex(level %d) = %#x, want %#x", lvl, got, want)
		}
	}
}

func TestRadixIndexRange(t *testing.T) {
	f := func(va uint64) bool {
		for lvl := 0; lvl < 4; lvl++ {
			if RadixIndex(VirtAddr(va), lvl) > 0x1FF {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlign(t *testing.T) {
	if got := AlignUp(0x1234, 0x1000); got != 0x2000 {
		t.Errorf("AlignUp = %#x", got)
	}
	if got := AlignUp(0x1000, 0x1000); got != 0x1000 {
		t.Errorf("AlignUp aligned = %#x", got)
	}
	f := func(va uint64, shift uint8) bool {
		a := uint64(1) << (shift % 30)
		va &= 1<<40 - 1 // AlignUp may wrap for enormous va
		u := uint64(AlignUp(VirtAddr(va), a))
		return u%a == 0 && u >= va && u-va < a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
