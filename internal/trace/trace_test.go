package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/workload"
)

// replayAll decodes a trace of either format through OpenStream, the path
// the simulator replays from, returning every record up to the end of the
// trace or the first decode error.
func replayAll(r io.Reader) ([]addr.VirtAddr, error) {
	s, err := OpenStream(r)
	if err != nil {
		return nil, err
	}
	var vas []addr.VirtAddr
	buf := make([]addr.VirtAddr, 64)
	for {
		n, err := s.NextBatch(buf)
		if errors.Is(err, io.EOF) {
			return vas, nil
		}
		if err != nil {
			return vas, err
		}
		vas = append(vas, buf[:n]...)
	}
}

func TestRoundTrip(t *testing.T) {
	addrs := []addr.VirtAddr{0x1000, 0x1040, 0x1080, 0xFFFF_0000, 0x0, 0x1000}
	var buf bytes.Buffer
	n, err := Record(&buf, func(emit func(addr.VirtAddr)) {
		for _, a := range addrs {
			emit(a)
		}
	})
	if err != nil || n != uint64(len(addrs)) {
		t.Fatalf("Record = %d, %v", n, err)
	}
	got, err := replayAll(&buf)
	if err != nil || len(got) != len(addrs) {
		t.Fatalf("replay = %d records, %v", len(got), err)
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("access %d = %#x, want %#x", i, got[i], addrs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, count uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%500) + 1
		addrs := make([]addr.VirtAddr, n)
		for i := range addrs {
			addrs[i] = addr.VirtAddr(rng.Uint64() & ((1 << 48) - 1))
		}
		var buf bytes.Buffer
		if _, err := Record(&buf, func(emit func(addr.VirtAddr)) {
			for _, a := range addrs {
				emit(a)
			}
		}); err != nil {
			return false
		}
		got, err := replayAll(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != addrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace file"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestEarlyStop(t *testing.T) {
	var buf bytes.Buffer
	Record(&buf, func(emit func(addr.VirtAddr)) {
		for i := 0; i < 100; i++ {
			emit(addr.VirtAddr(i * 64))
		}
	})
	// A reader stopped after one record resumes at the second.
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var one [1]addr.VirtAddr
	if n, err := r.NextBatch(one[:]); err != nil || n != 1 || one[0] != 0 {
		t.Fatalf("first batch = %d %#x (%v), want 1 record at 0", n, uint64(one[0]), err)
	}
	if va, err := r.Next(); err != nil || va != 64 {
		t.Errorf("resumed at %#x (%v), want 0x40", uint64(va), err)
	}
}

// TestCompression: a sequential trace must encode far below 8 bytes per
// access — the point of delta-varint encoding.
func TestCompression(t *testing.T) {
	var buf bytes.Buffer
	const n = 10000
	Record(&buf, func(emit func(addr.VirtAddr)) {
		for i := 0; i < n; i++ {
			emit(addr.VirtAddr(0x10000 + i*64))
		}
	})
	perAccess := float64(buf.Len()-8) / n
	if perAccess > 2.2 {
		t.Errorf("sequential trace uses %.2f bytes/access, want ≈2 (64B stride = 2-byte varint)", perAccess)
	}
}

// TestWorkloadTraceRoundTrip: a real workload trace records and replays
// identically — the record/replay path preserves simulation inputs.
func TestWorkloadTraceRoundTrip(t *testing.T) {
	spec, err := workload.ByName("BFS", 256)
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.NewTrace(3, 20000)
	var orig []addr.VirtAddr
	var buf bytes.Buffer
	if _, err := Record(&buf, func(emit func(addr.VirtAddr)) {
		for {
			va, ok := tr.Next()
			if !ok {
				return
			}
			orig = append(orig, va)
			emit(va)
		}
	}); err != nil {
		t.Fatal(err)
	}
	got, err := replayAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("replayed %d of %d", len(got), len(orig))
	}
	for i := range got {
		if got[i] != orig[i] {
			t.Fatalf("access %d = %#x, want %#x", i, got[i], orig[i])
		}
	}
}

func TestReaderPlainEOF(t *testing.T) {
	var buf bytes.Buffer
	Record(&buf, func(emit func(addr.VirtAddr)) { emit(1) })
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
}
