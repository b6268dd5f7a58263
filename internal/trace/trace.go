// Package trace provides a compact binary format for memory-reference
// traces, so workload address streams (statistical generators or real graph
// kernels) can be recorded once and replayed deterministically — the
// standard methodology of trace-driven architectural simulation.
//
// Format: a magic header, then one varint-encoded record per access holding
// the zigzag delta from the previous address. Memory traces are highly
// local, so delta-varint encoding compresses sequential and strided streams
// to ~1-2 bytes per access.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/addr"
)

// magic identifies the trace format and its version.
var magic = [8]byte{'M', 'E', 'H', 'P', 'T', 'T', 'R', '1'}

// ErrBadMagic is returned when a reader is given a non-trace stream.
var ErrBadMagic = errors.New("trace: bad magic (not a trace or wrong version)")

// Writer streams accesses to an io.Writer.
type Writer struct {
	w    *bufio.Writer
	prev uint64
	n    uint64
	buf  [binary.MaxVarintLen64]byte
}

// NewWriter writes the header and returns a Writer. Call Flush when done.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// zigzag encodes a signed delta as unsigned.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Append records one access.
func (w *Writer) Append(va addr.VirtAddr) error {
	d := int64(uint64(va) - w.prev)
	w.prev = uint64(va)
	n := binary.PutUvarint(w.buf[:], zigzag(d))
	w.n++
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Len returns the number of accesses written.
func (w *Writer) Len() uint64 { return w.n }

// Flush writes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader replays a trace from an io.Reader.
type Reader struct {
	r    *bufio.Reader
	prev uint64
	err  error // stashed by NextBatch when a partial batch precedes an error
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if got != magic {
		return nil, ErrBadMagic
	}
	return &Reader{r: br}, nil
}

// Next returns the next access; io.EOF ends the trace.
func (r *Reader) Next() (addr.VirtAddr, error) {
	u, err := binary.ReadUvarint(r.r)
	if err != nil {
		return 0, err
	}
	r.prev += uint64(unzigzag(u))
	return addr.VirtAddr(r.prev), nil
}

// Record captures every address gen emits into w.
func Record(w io.Writer, gen func(emit func(addr.VirtAddr))) (uint64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	var emitErr error
	gen(func(va addr.VirtAddr) {
		if emitErr == nil {
			emitErr = tw.Append(va)
		}
	})
	if emitErr != nil {
		return tw.Len(), emitErr
	}
	return tw.Len(), tw.Flush()
}
