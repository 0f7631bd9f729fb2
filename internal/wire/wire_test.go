package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteFrame(&buf, OpPNN, payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != OpPNN || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: kind=%d payload=%v", kind, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpPing, nil); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != OpPing || len(payload) != 0 {
		t.Fatalf("kind=%d payload=%v", kind, payload)
	}
}

// TestAppendFrameCoalesces: frames appended back to back into one
// buffer decode in order, byte-identical to WriteFrame's, and an
// oversized frame leaves the buffer untouched.
func TestAppendFrameCoalesces(t *testing.T) {
	prefix := []byte("keep")
	buf := append([]byte(nil), prefix...)
	var want bytes.Buffer
	want.Write(prefix)
	for i := 0; i < 3; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, i*7)
		var err error
		if buf, err = AppendFrame(buf, OpPNN+byte(i), payload); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&want, OpPNN+byte(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf, want.Bytes()) {
		t.Fatalf("AppendFrame %x, WriteFrame %x", buf, want.Bytes())
	}
	r := bytes.NewReader(buf[len(prefix):])
	for i := 0; i < 3; i++ {
		kind, payload, err := ReadFrame(r)
		if err != nil || kind != OpPNN+byte(i) || len(payload) != i*7 {
			t.Fatalf("frame %d: kind %d, %d bytes, err %v", i, kind, len(payload), err)
		}
	}
	before := len(buf)
	if out, err := AppendFrame(buf, OpPing, make([]byte, MaxFrame)); err == nil || len(out) != before {
		t.Fatalf("oversized append: err %v, len %d → %d", err, before, len(out))
	}
}

func TestFrameChecksumRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpStats, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[6] ^= 0xFF // flip a payload byte
	if _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

func TestFrameLengthBounds(t *testing.T) {
	// Oversized declared length.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Undersized declared length.
	binary.LittleEndian.PutUint32(hdr[:], 2)
	if _, _, err := ReadFrame(bytes.NewReader(append(hdr[:], 0, 0))); err == nil {
		t.Fatal("undersized frame accepted")
	}
	// Writer refuses oversized payloads.
	if err := WriteFrame(io.Discard, OpPing, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestFrameShortRead(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpPing, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestBufferReaderRoundTrip(t *testing.T) {
	var b Buffer
	b.U16(7)
	b.U32(42)
	b.U64(1 << 40)
	b.I32(-13)
	b.F64(math.Pi)
	b.Str("uncertain voronoi")

	r := NewReader(b.Bytes())
	if v := r.U16(); v != 7 {
		t.Fatalf("U16 = %d", v)
	}
	if v := r.U32(); v != 42 {
		t.Fatalf("U32 = %d", v)
	}
	if v := r.U64(); v != 1<<40 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.I32(); v != -13 {
		t.Fatalf("I32 = %d", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if v := r.Str(); v != "uncertain voronoi" {
		t.Fatalf("Str = %q", v)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining %d", r.Remaining())
	}
}

func TestReaderTruncationSticky(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32()
	if r.Err() == nil {
		t.Fatal("truncated read succeeded")
	}
	// Sticky: further reads keep the error, return zero values.
	if v := r.F64(); v != 0 || r.Err() == nil {
		t.Fatal("sticky error violated")
	}
}

// TestReaderBytes: Bytes reads what Str wrote, without copying, and is
// capped so an append by the caller cannot overwrite the payload behind
// it; an oversized length errors instead of slicing past the end.
func TestReaderBytes(t *testing.T) {
	var b Buffer
	b.Str("manifest")
	b.U8(7)
	r := NewReader(b.Bytes())
	got := r.Bytes()
	if string(got) != "manifest" || cap(got) != len(got) {
		t.Fatalf("Bytes = %q (len %d, cap %d)", got, len(got), cap(got))
	}
	if v := r.U8(); v != 7 || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("after Bytes: U8 = %d, err %v, remaining %d", v, r.Err(), r.Remaining())
	}
	var big Buffer
	big.U32(1000)
	r = NewReader(big.Bytes())
	if got := r.Bytes(); got != nil || r.Err() == nil {
		t.Fatalf("oversized byte string accepted: %q", got)
	}
}

// TestReaderTake: Take returns the next n bytes in place; a negative n
// or one past the end sets the sticky error instead of slicing.
func TestReaderTake(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5})
	if got := r.Take(3); !bytes.Equal(got, []byte{1, 2, 3}) || r.Remaining() != 2 {
		t.Fatalf("Take(3) = %v, %d remaining", got, r.Remaining())
	}
	if got := r.Take(-1); got != nil || r.Err() == nil {
		t.Fatalf("Take(-1) = %v, err %v", got, r.Err())
	}
	r = NewReader([]byte{1, 2})
	if got := r.Take(3); got != nil || r.Err() == nil {
		t.Fatalf("Take past the end = %v, err %v", got, r.Err())
	}
}

func TestReaderStrBounds(t *testing.T) {
	var b Buffer
	b.U32(1000) // claims 1000 bytes, none present
	r := NewReader(b.Bytes())
	if s := r.Str(); s != "" || r.Err() == nil {
		t.Fatalf("oversized string accepted: %q", s)
	}
	if r.Err() != nil && !strings.Contains(r.Err().Error(), "exceeds") {
		t.Fatalf("unexpected error: %v", r.Err())
	}
}

func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, OpPNN, []byte{1, 2, 3})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success the re-encoded frame must decode
		// to the same payload.
		kind, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, kind, payload); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		k2, p2, err := ReadFrame(&buf)
		if err != nil || k2 != kind || !bytes.Equal(p2, payload) {
			t.Fatalf("re-decode mismatch: %v %d %v", err, k2, p2)
		}
	})
}
