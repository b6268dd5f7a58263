package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/addr"
)

// binSections is a representative sectioned trace: distinct PIDs, an empty
// section in the middle, and addresses exercising the full 64-bit range.
func binSections() []Section {
	return []Section{
		{PID: 1, VAs: []addr.VirtAddr{0x1000, 0x2000, 0x1000}},
		{PID: 7, VAs: nil},
		{PID: 42, VAs: []addr.VirtAddr{0, 1<<47 - 4096, ^addr.VirtAddr(0)}},
	}
}

func encodeSections(t testing.TB, secs []Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, secs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryGoldenLayout pins the on-disk layout byte-for-byte: the header
// fields at their documented offsets and the first record immediately after
// the section table. A layout change must break this test, not slip by.
func TestBinaryGoldenLayout(t *testing.T) {
	data := encodeSections(t, binSections())
	if got := string(data[:8]); got != "MEHPTBT1" {
		t.Fatalf("magic = %q", got)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != BinaryVersion {
		t.Errorf("version = %d", v)
	}
	if s := binary.LittleEndian.Uint32(data[12:16]); s != 3 {
		t.Errorf("section count = %d, want 3", s)
	}
	if n := binary.LittleEndian.Uint64(data[16:24]); n != 6 {
		t.Errorf("record count = %d, want 6", n)
	}
	if r := binary.LittleEndian.Uint64(data[24:32]); r != 0 {
		t.Errorf("reserved = %d, want 0", r)
	}
	if want := binaryHeaderLen + 3*16 + 6*8; len(data) != want {
		t.Fatalf("file length = %d, want %d", len(data), want)
	}
	// Section table entry 0: (pid=1, count=3).
	if p := binary.LittleEndian.Uint64(data[32:40]); p != 1 {
		t.Errorf("section 0 pid = %d", p)
	}
	if c := binary.LittleEndian.Uint64(data[40:48]); c != 3 {
		t.Errorf("section 0 count = %d", c)
	}
	// First record: 0x1000, little-endian at the computed offset.
	rec0 := binaryHeaderLen + 3*16
	if va := binary.LittleEndian.Uint64(data[rec0 : rec0+8]); va != 0x1000 {
		t.Errorf("record 0 = %#x", va)
	}
}

func TestBinarySectionRoundTrip(t *testing.T) {
	want := binSections()
	got, err := ReadSections(bytes.NewReader(encodeSections(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d sections, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].PID != want[i].PID {
			t.Errorf("section %d pid = %d, want %d", i, got[i].PID, want[i].PID)
		}
		if len(got[i].VAs) != len(want[i].VAs) || (len(want[i].VAs) > 0 && !reflect.DeepEqual(got[i].VAs, want[i].VAs)) {
			t.Errorf("section %d VAs = %v, want %v", i, got[i].VAs, want[i].VAs)
		}
	}
}

func TestBinaryAnonymousRoundTrip(t *testing.T) {
	vas := []addr.VirtAddr{0x4000_0000, 0x4000_1000, 0x4000_0000, 7}
	var buf bytes.Buffer
	if err := WriteBinaryVAs(&buf, vas); err != nil {
		t.Fatal(err)
	}
	secs, err := ReadSections(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 || secs[0].PID != 0 || !reflect.DeepEqual(secs[0].VAs, vas) {
		t.Fatalf("anonymous round trip: %+v", secs)
	}
	// An empty anonymous trace is valid and decodes to one empty section.
	buf.Reset()
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	secs, err = ReadSections(bytes.NewReader(buf.Bytes()))
	if err != nil || len(secs) != 1 || len(secs[0].VAs) != 0 {
		t.Fatalf("empty trace: %+v, %v", secs, err)
	}
}

// TestVarintBinaryVarintRoundTrip is the converter's golden property: a
// varint trace converted to binary and back re-encodes to the exact bytes of
// the original (the varint encoder is deterministic), so mehpt-trace convert
// is lossless in both directions.
func TestVarintBinaryVarintRoundTrip(t *testing.T) {
	original := validTrace(t)

	vas, err := replayAll(bytes.NewReader(original))
	if err != nil {
		t.Fatal(err)
	}

	var bin bytes.Buffer
	if err := WriteBinaryVAs(&bin, vas); err != nil {
		t.Fatal(err)
	}
	secs, err := ReadSections(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 {
		t.Fatalf("%d sections from anonymous conversion", len(secs))
	}

	var back bytes.Buffer
	if _, err := Record(&back, func(emit func(addr.VirtAddr)) {
		for _, va := range secs[0].VAs {
			emit(va)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), original) {
		t.Fatalf("varint→binary→varint not byte-identical:\n got %x\nwant %x", back.Bytes(), original)
	}
}

// TestBinaryOpenStream: the format sniffer must route both formats to a
// working decoder and reject unknown magic.
func TestBinaryOpenStream(t *testing.T) {
	vas := []addr.VirtAddr{1 << 20, 2 << 20, 3 << 20}
	var bin bytes.Buffer
	if err := WriteBinaryVAs(&bin, vas); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out [8]addr.VirtAddr
	n, err := s.NextBatch(out[:])
	if err != nil || n != 3 || !reflect.DeepEqual(out[:3], vas) {
		t.Fatalf("binary stream: n=%d err=%v out=%v", n, err, out[:3])
	}
	if _, err := OpenStream(bytes.NewReader([]byte("NOTATRACEATALL"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("unknown magic: err = %v", err)
	}
}

func corruptAt(data []byte, off int, b byte) []byte {
	c := append([]byte(nil), data...)
	c[off] = b
	return c
}

func TestBinaryHeaderValidation(t *testing.T) {
	valid := encodeSections(t, binSections())

	if _, err := NewBinaryReader(bytes.NewReader(corruptAt(valid, 0, 'X'))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: err = %v", err)
	}
	if _, err := NewBinaryReader(bytes.NewReader(corruptAt(valid, 8, 99))); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: err = %v", err)
	}
	if _, err := NewBinaryReader(bytes.NewReader(corruptAt(valid, 24, 1))); !errors.Is(err, ErrBadHeader) {
		t.Errorf("nonzero reserved: err = %v", err)
	}
	// Section count far beyond maxSections must be rejected as corrupt, not
	// treated as an allocation request.
	huge := corruptAt(valid, 15, 0xFF)
	if _, err := NewBinaryReader(bytes.NewReader(huge)); !errors.Is(err, ErrBadHeader) {
		t.Errorf("absurd section count: err = %v", err)
	}
	// Section counts that do not sum to the header's record count.
	if _, err := NewBinaryReader(bytes.NewReader(corruptAt(valid, 40, 5))); !errors.Is(err, ErrBadHeader) {
		t.Errorf("count mismatch: err = %v", err)
	}
	// A section count claiming to overflow uint64 when summed.
	over := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(over[40:48], ^uint64(0))
	binary.LittleEndian.PutUint64(over[56:64], ^uint64(0))
	if _, err := NewBinaryReader(bytes.NewReader(over)); !errors.Is(err, ErrBadHeader) {
		t.Errorf("count overflow: err = %v", err)
	}
}

// TestBinaryTruncation: every prefix of a valid trace must fail cleanly —
// header and section-table cuts at construction, record cuts as ErrTruncated
// after yielding only whole records already present in the prefix.
func TestBinaryTruncation(t *testing.T) {
	valid := encodeSections(t, binSections())
	tableEnd := binaryHeaderLen + 3*16
	for cut := 0; cut < len(valid); cut++ {
		r, err := NewBinaryReader(bytes.NewReader(valid[:cut]))
		if cut < tableEnd {
			if err == nil {
				t.Fatalf("cut %d: truncated header/table accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		var out [4]addr.VirtAddr
		records := 0
		for {
			n, err := r.NextBatch(out[:])
			records += n
			if n == 0 {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
				}
				break
			}
		}
		if want := (cut - tableEnd) / 8; records != want {
			t.Fatalf("cut %d: decoded %d records, want %d", cut, records, want)
		}
	}
}

// TestBinaryNextBatchAllocFree pins the doc-comment claim: after
// construction, the streaming decode path performs zero heap allocations.
func TestBinaryNextBatchAllocFree(t *testing.T) {
	const records = 40_000
	vas := make([]addr.VirtAddr, records)
	for i := range vas {
		vas[i] = addr.VirtAddr(i) * 4096
	}
	var buf bytes.Buffer
	if err := WriteBinaryVAs(&buf, vas); err != nil {
		t.Fatal(err)
	}
	r, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out [64]addr.VirtAddr
	if n := testing.AllocsPerRun(500, func() {
		got, err := r.NextBatch(out[:])
		if got != len(out) || err != nil {
			t.Fatalf("NextBatch = %d, %v mid-trace", got, err)
		}
	}); n != 0 {
		t.Errorf("NextBatch allocates %v objects per call", n)
	}
}

// TestVarintNextBatchAllocFree: the varint Reader's NextBatch, the replay
// path for traces in the older format, decodes from its buffered reader
// without allocating.
func TestVarintNextBatchAllocFree(t *testing.T) {
	const records = 40_000
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		// Forward and backward deltas of several varint lengths.
		if err := w.Append(addr.VirtAddr(uint64(i)*4096 ^ uint64(i%7)<<30)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out [64]addr.VirtAddr
	if n := testing.AllocsPerRun(500, func() {
		got, err := r.NextBatch(out[:])
		if got != len(out) || err != nil {
			t.Fatalf("NextBatch = %d, %v mid-trace", got, err)
		}
	}); n != 0 {
		t.Errorf("NextBatch allocates %v objects per call", n)
	}
}

// FuzzBinaryReaderAdversarial: arbitrary bytes must never panic the decoder
// or let it fabricate more records than the input could hold (every record
// is 8 bytes).
func FuzzBinaryReaderAdversarial(f *testing.F) {
	valid := encodeSections(f, binSections())
	var anon bytes.Buffer
	if err := WriteBinaryVAs(&anon, []addr.VirtAddr{0x1000, 0x2000}); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte("MEHPTBT1"))
	f.Add(valid)
	f.Add(anon.Bytes())
	f.Add(valid[:len(valid)-3])       // truncated mid-record
	f.Add(valid[:binaryHeaderLen+16]) // truncated section table
	f.Add(corruptAt(valid, 8, 2))     // future version
	f.Add(corruptAt(valid, 13, 0xFF)) // huge section count
	f.Add(corruptAt(valid, 16, 0xFF)) // record count > stream
	f.Add(corruptAt(valid, 31, 1))    // nonzero reserved
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewBinaryReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out [32]addr.VirtAddr
		records := 0
		for {
			n, err := r.NextBatch(out[:])
			records += n
			if records > len(data)/8+1 {
				t.Fatalf("%d records from %d input bytes", records, len(data))
			}
			if n == 0 {
				if err == nil {
					t.Fatal("NextBatch returned (0, nil) with a non-empty buffer")
				}
				if errors.Is(err, io.EOF) && r.Remaining() != 0 {
					t.Fatalf("clean EOF with %d records remaining", r.Remaining())
				}
				return
			}
		}
	})
}
