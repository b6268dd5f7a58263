package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/addr"
)

// validTrace builds a well-formed trace with a few representative deltas.
func validTrace(t testing.TB) []byte {
	var buf bytes.Buffer
	_, err := Record(&buf, func(emit func(addr.VirtAddr)) {
		emit(0x1000)
		emit(0x2000)
		emit(0x1000)       // negative delta
		emit(0)            // large negative delta
		emit(1<<47 - 4096) // huge positive delta
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReaderAdversarial feeds arbitrary byte streams to the reader: it must
// return errors on malformed input — never panic — and can never produce
// more records than input bytes (every record is at least one byte), which
// also rules out non-termination.
func FuzzReaderAdversarial(f *testing.F) {
	valid := validTrace(f)
	f.Add([]byte{})
	f.Add([]byte("short"))
	f.Add(magic[:])               // header only, zero records
	f.Add([]byte("MEHPTTR0AAAA")) // wrong version
	f.Add(valid)                  // well-formed
	f.Add(valid[:len(valid)-1])   // truncated mid-varint
	f.Add(append(valid[:len(valid):len(valid)],
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)) // varint overflow
	f.Add(append(valid[:len(valid):len(valid)], 0x80)) // dangling continuation bit

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if len(data) >= 8 && bytes.Equal(data[:8], magic[:]) && errors.Is(err, ErrBadMagic) {
				t.Fatal("valid magic rejected as bad")
			}
			return
		}
		for i := 0; i <= len(data); i++ {
			if _, err := r.Next(); err != nil {
				return // EOF or a decode error; both are graceful
			}
		}
		t.Fatalf("reader produced more than %d records from %d input bytes", len(data), len(data))
	})
}

// TestReaderTruncation: every prefix of a valid trace must decode without
// panicking and end in EOF or ErrUnexpectedEOF, with at most as many
// records as the full trace.
func TestReaderTruncation(t *testing.T) {
	valid := validTrace(t)
	full, err := replayAll(bytes.NewReader(valid))
	if err != nil || len(full) != 5 {
		t.Fatalf("full replay: %d records, err %v; want 5, nil", len(full), err)
	}
	for cut := 0; cut < len(valid); cut++ {
		got, err := replayAll(bytes.NewReader(valid[:cut]))
		if cut < 8 {
			if err == nil {
				t.Fatalf("cut %d: truncated header accepted", cut)
			}
			continue
		}
		if len(got) > len(full) {
			t.Fatalf("cut %d: %d records from a prefix of a %d-record trace", cut, len(got), len(full))
		}
		if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("cut %d: unexpected error kind: %v", cut, err)
		}
	}
}

// TestReaderCorruption: flipping any single byte of a valid trace must not
// panic and must not make the reader run away past the record bound.
func TestReaderCorruption(t *testing.T) {
	valid := validTrace(t)
	for pos := 0; pos < len(valid); pos++ {
		for _, flip := range []byte{0xFF, 0x80, 0x01} {
			corrupted := append([]byte(nil), valid...)
			corrupted[pos] ^= flip
			r, err := NewReader(bytes.NewReader(corrupted))
			if err != nil {
				continue // header corruption detected
			}
			records := 0
			for {
				if _, err := r.Next(); err != nil {
					break
				}
				records++
				if records > len(corrupted) {
					t.Fatalf("pos %d flip %#x: runaway reader", pos, flip)
				}
			}
		}
	}
}
