// Stream is the batch-decoding view the simulator consumes: both trace
// formats implement it, and OpenStream picks the right decoder from the
// magic, so replay callers never care which format a file uses.
package trace

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/addr"
)

// Stream yields a trace batch-at-a-time. NextBatch fills out and returns
// how many records it produced. The contract, shared by both formats:
//
//   - n > 0 always comes with a nil error, even if the stream ended or
//     broke mid-batch — the terminal error is stashed and reported by the
//     next call, so callers never have to handle (n, err) simultaneously.
//   - (0, io.EOF) is a clean end of trace.
//   - (0, other) is a decode failure; the records already returned are
//     valid.
type Stream interface {
	NextBatch(out []addr.VirtAddr) (int, error)
}

// NextBatch adapts the varint Reader to the Stream contract. The varint
// format is sequential by nature (each record is a delta off the last), so
// this decodes record-at-a-time into out; the batching benefit for this
// format is amortizing the per-access interface call in the simulator, not
// the decode itself.
func (r *Reader) NextBatch(out []addr.VirtAddr) (int, error) {
	if r.err != nil {
		err := r.err
		r.err = nil
		return 0, err
	}
	for i := range out {
		va, err := r.Next()
		if err != nil {
			if i > 0 {
				r.err = err
				return i, nil
			}
			return 0, err
		}
		out[i] = va
	}
	return len(out), nil
}

// OpenStream sniffs the magic and returns the matching decoder. Both
// readers tolerate being handed the shared *bufio.Reader (bufio.NewReader
// returns an adequately-sized *bufio.Reader unchanged), so the peeked bytes
// are not lost.
func OpenStream(r io.Reader) (Stream, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(8)
	if err != nil {
		return nil, fmt.Errorf("trace: sniffing format: %w", err)
	}
	switch [8]byte(head) {
	case magic:
		return NewReader(br)
	case magicBin:
		return NewBinaryReader(br)
	}
	return nil, ErrBadMagic
}
