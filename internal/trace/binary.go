// Binary trace format: the fixed-width sibling of the varint format in
// trace.go, built for batched replay. Where the varint format optimizes
// bytes-per-access, this one optimizes decode: records are raw 8-byte
// little-endian virtual addresses at stable offsets, so a streaming reader
// decodes straight into the simulator's batch buffers with no per-record
// branching, and an mmap'd file can be indexed without any decode at all
// (record i of a section lives at a computable offset).
//
// Layout (all fields little-endian):
//
//	offset  size  field
//	0       8     magic "MEHPTBT1"
//	8       4     version (currently 1)
//	12      4     section count S (0 = one anonymous stream)
//	16      8     record count N (total across all sections)
//	24      8     reserved, must be zero
//	32      16×S  section table: (pid uint64, count uint64) per section;
//	              the counts must sum to N
//	32+16S  8×N   records: uint64 virtual addresses, section-major in
//	              table order
//
// The optional section table carries per-process streams for the
// multi-tenant machine: one section per simulated process, keyed by pid.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/addr"
)

// magicBin identifies the binary fixed-width trace format.
var magicBin = [8]byte{'M', 'E', 'H', 'P', 'T', 'B', 'T', '1'}

// BinaryVersion is the current binary-format version written and accepted.
const BinaryVersion = 1

// binaryHeaderLen is the fixed header size; sections follow immediately.
const binaryHeaderLen = 32

// maxSections bounds the section table a reader will accept; beyond it the
// header is treated as corrupt rather than as an allocation request.
const maxSections = 1 << 20

// Binary-format error sentinels.
var (
	// ErrBadVersion is returned for a well-formed binary header whose
	// version this build does not speak.
	ErrBadVersion = errors.New("trace: unsupported binary trace version")
	// ErrBadHeader is returned when the header or section table is
	// internally inconsistent (nonzero reserved bytes, counts that do not
	// add up, an absurd section count).
	ErrBadHeader = errors.New("trace: malformed binary trace header")
	// ErrTruncated is returned when the stream ends before the record
	// count promised by the header.
	ErrTruncated = errors.New("trace: truncated binary trace")
)

// Section is one contiguous run of accesses, optionally keyed by a
// simulated process id. A file written from a single []Section with PID 0
// round-trips as an anonymous stream.
type Section struct {
	PID uint64
	VAs []addr.VirtAddr
}

// SectionInfo describes one section of an open binary trace without its
// records.
type SectionInfo struct {
	PID   uint64
	Count uint64
}

// WriteBinaryVAs writes vas as a sectionless (anonymous) binary trace.
func WriteBinaryVAs(w io.Writer, vas []addr.VirtAddr) error {
	return writeBinary(w, nil, vas)
}

// WriteBinary writes sections as a binary trace with a per-process section
// table. An empty slice writes a valid, empty anonymous trace.
func WriteBinary(w io.Writer, sections []Section) error {
	return writeBinary(w, sections, nil)
}

func writeBinary(w io.Writer, sections []Section, anon []addr.VirtAddr) error {
	bw := bufio.NewWriter(w)
	var total uint64
	for _, s := range sections {
		total += uint64(len(s.VAs))
	}
	total += uint64(len(anon))
	var hdr [binaryHeaderLen]byte
	copy(hdr[:8], magicBin[:])
	binary.LittleEndian.PutUint32(hdr[8:12], BinaryVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(sections)))
	binary.LittleEndian.PutUint64(hdr[16:24], total)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var ent [16]byte
	for _, s := range sections {
		binary.LittleEndian.PutUint64(ent[:8], s.PID)
		binary.LittleEndian.PutUint64(ent[8:16], uint64(len(s.VAs)))
		if _, err := bw.Write(ent[:]); err != nil {
			return err
		}
	}
	var rec [8]byte
	for _, s := range sections {
		for _, va := range s.VAs {
			binary.LittleEndian.PutUint64(rec[:], uint64(va))
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	for _, va := range anon {
		binary.LittleEndian.PutUint64(rec[:], uint64(va))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// BinaryReader streams a binary trace, decoding records directly into the
// caller's batch buffers. After construction, NextBatch performs no heap
// allocation (the staging buffer is reused), which the AllocsPerRun guard
// in binary_test.go pins.
type BinaryReader struct {
	r         *bufio.Reader
	secs      []SectionInfo
	remaining uint64
	buf       []byte // staging for ReadFull → LE decode
	err       error  // terminal error, reported once records run out
}

// stagingRecords is how many records NextBatch reads per ReadFull; a
// multiple of the batch width so one syscall-sized read feeds several
// batches.
const stagingRecords = 512

// NewBinaryReader validates the header and section table and returns a
// streaming reader positioned at the first record.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := bufio.NewReader(r)
	var hdr [binaryHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading binary header: %w", err)
	}
	if [8]byte(hdr[:8]) != magicBin {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != BinaryVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	nsec := binary.LittleEndian.Uint32(hdr[12:16])
	total := binary.LittleEndian.Uint64(hdr[16:24])
	if binary.LittleEndian.Uint64(hdr[24:32]) != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved field", ErrBadHeader)
	}
	if nsec > maxSections {
		return nil, fmt.Errorf("%w: %d sections", ErrBadHeader, nsec)
	}
	rd := &BinaryReader{r: br, remaining: total, buf: make([]byte, stagingRecords*8)}
	if nsec > 0 {
		rd.secs = make([]SectionInfo, nsec)
		var sum uint64
		var ent [16]byte
		for i := range rd.secs {
			if _, err := io.ReadFull(br, ent[:]); err != nil {
				return nil, fmt.Errorf("trace: reading section table: %w", err)
			}
			rd.secs[i] = SectionInfo{
				PID:   binary.LittleEndian.Uint64(ent[:8]),
				Count: binary.LittleEndian.Uint64(ent[8:16]),
			}
			next := sum + rd.secs[i].Count
			if next < sum {
				return nil, fmt.Errorf("%w: section counts overflow", ErrBadHeader)
			}
			sum = next
		}
		if sum != total {
			return nil, fmt.Errorf("%w: section counts sum to %d, header says %d records",
				ErrBadHeader, sum, total)
		}
	}
	return rd, nil
}

// Sections returns the per-process section table, or nil for an anonymous
// trace. The returned slice is the reader's own; callers must not modify it.
func (r *BinaryReader) Sections() []SectionInfo { return r.secs }

// Remaining returns how many records have not yet been decoded.
func (r *BinaryReader) Remaining() uint64 { return r.remaining }

// NextBatch decodes up to len(out) records into out and returns the count.
// A clean end of trace returns (0, io.EOF). If the stream ends early, the
// records decoded so far are returned first and the following call reports
// an error wrapping ErrTruncated. Sections are not visible here — records
// stream contiguously in section order; callers that need per-section
// framing use ReadSections or walk Sections() counts themselves.
func (r *BinaryReader) NextBatch(out []addr.VirtAddr) (int, error) {
	if r.remaining == 0 || len(out) == 0 {
		if r.err != nil {
			return 0, r.err
		}
		if r.remaining == 0 {
			return 0, io.EOF
		}
		return 0, nil
	}
	want := uint64(len(out))
	if want > r.remaining {
		want = r.remaining
	}
	decoded := 0
	for uint64(decoded) < want {
		n := want - uint64(decoded)
		if n > stagingRecords {
			n = stagingRecords
		}
		read, err := io.ReadFull(r.r, r.buf[:n*8])
		whole := read / 8
		for i := 0; i < whole; i++ {
			out[decoded+i] = addr.VirtAddr(binary.LittleEndian.Uint64(r.buf[i*8 : i*8+8]))
		}
		decoded += whole
		r.remaining -= uint64(whole)
		if err != nil {
			r.err = fmt.Errorf("%w: %d records missing", ErrTruncated, r.remaining)
			r.remaining = 0
			if decoded > 0 {
				return decoded, nil
			}
			return 0, r.err
		}
	}
	return decoded, nil
}

// ReadSections fully decodes a binary trace into its sections. An
// anonymous trace decodes as a single Section with PID 0.
func ReadSections(r io.Reader) ([]Section, error) {
	br, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	infos := br.Sections()
	if infos == nil {
		infos = []SectionInfo{{PID: 0, Count: br.Remaining()}}
	}
	out := make([]Section, len(infos))
	var batch [256]addr.VirtAddr
	for i, info := range infos {
		out[i] = Section{PID: info.PID, VAs: make([]addr.VirtAddr, 0, info.Count)}
		left := info.Count
		for left > 0 {
			want := left
			if want > uint64(len(batch)) {
				want = uint64(len(batch))
			}
			n, err := br.NextBatch(batch[:want])
			if n == 0 {
				if err == nil || errors.Is(err, io.EOF) {
					err = fmt.Errorf("%w: section %d short", ErrTruncated, i)
				}
				return nil, err
			}
			out[i].VAs = append(out[i].VAs, batch[:n]...)
			left -= uint64(n)
		}
	}
	return out, nil
}

// FindSection returns the section for pid, or false if absent.
func FindSection(sections []Section, pid uint64) (Section, bool) {
	for _, s := range sections {
		if s.PID == pid {
			return s, true
		}
	}
	return Section{}, false
}
