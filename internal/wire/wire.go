// Package wire defines the framed binary protocol spoken between the
// UV-diagram server and its clients: a minimal, versioned,
// length-prefixed format with per-frame CRC-32 integrity, built only on
// encoding/binary and hash/crc32.
//
// Frame layout (all little endian):
//
//	uint32  length   — byte count of everything after this field
//	byte    kind     — request: opcode; response: status
//	payload bytes    — operation-specific
//	uint32  crc      — CRC-32 (IEEE) of kind + payload
//
// A frame never exceeds MaxFrame bytes; oversized or corrupt frames
// poison the connection (the server closes it), since after a framing
// error the stream offset can no longer be trusted.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Opcodes of request frames.
const (
	OpPing        byte = 0x01
	OpStats       byte = 0x02
	OpPNN         byte = 0x03
	OpTopK        byte = 0x04
	OpPossibleKNN byte = 0x05
	OpRNN         byte = 0x06
	OpCellArea    byte = 0x07
	OpPartitions  byte = 0x08
	OpInsert      byte = 0x09

	// Batch opcodes carry N query points in one frame and answer all of
	// them in one response frame. A batch is all-or-nothing: any failing
	// query fails the whole batch in-band (StatusErr names the query
	// index), and a malformed batch payload never poisons the stream —
	// only framing/CRC errors do.
	//
	// Payloads (little endian, points are x,y float64 pairs):
	//
	//	OpBatchPNN        u32 n, n × point                 → per query: u32 m, m × (i32 id, f64 prob)
	//	OpBatchTopK       u32 k, u32 n, n × point          → same shape as OpBatchPNN
	//	OpBatchKNN        u32 k, u32 n, n × point          → per query: u32 m, m × i32 id
	//	OpBatchThreshold  f64 tau, u32 n, n × point        → same shape as OpBatchPNN
	//
	// Every batch response is prefixed with u32 n echoing the query
	// count.
	OpBatchPNN       byte = 0x0A
	OpBatchTopK      byte = 0x0B
	OpBatchKNN       byte = 0x0C
	OpBatchThreshold byte = 0x0D

	// Delete opcodes (the dynamic-maintenance write path, alongside
	// OpInsert). Like Insert, both are per-connection pipeline barriers:
	// earlier queries on the connection observe pre-delete state, later
	// frames observe post-delete state.
	//
	// Payloads (little endian):
	//
	//	OpDelete       i32 id                → empty
	//	OpBatchDelete  u32 n, n × i32 id     → u32 n (echoed count)
	//
	// A batch delete is all-or-nothing: every id is validated (known,
	// live, no duplicates) before the first deletion, and a failing
	// batch reports the offending index in-band without deleting
	// anything. The point cap of batch queries applies (MaxBatchPoints
	// ids per frame).
	OpDelete      byte = 0x0E
	OpBatchDelete byte = 0x0F

	// Continuous subscription opcodes: the moving-query push engine.
	// A subscription is a server-side ContinuousPNN session keyed by a
	// server-assigned id; the server evaluates every move against the
	// session's safe circle and pushes an answer delta (PushAnswerDelta)
	// only when the answer set actually changed.
	//
	// Payloads (little endian):
	//
	//	OpSubscribe    f64 x, f64 y  → u64 sub, f64 cx, f64 cy, f64 r (safe circle),
	//	                               u32 m, m × i32 id (initial answer set, sorted)
	//	OpMove         u64 sub, f64 x, f64 y  → NO response frame
	//	OpUnsubscribe  u64 sub  → u64 moves, u64 recomputes, u64 indexIOs, u64 pushes
	//
	// OpMove is the one fire-and-forget opcode: a moving client streams
	// positions without consuming response-window slots, and hears back
	// only through out-of-band delta pushes. Because it has no response
	// slot, a malformed move payload (truncated, trailing bytes) poisons
	// the connection like a framing error — there is no in-band channel
	// to report it on. A move naming an unknown subscription id is
	// ignored: it is indistinguishable from a benign race against a
	// server-side session drop whose error push is still in flight.
	// Subscribe/Unsubscribe carry responses and report errors in-band
	// like every other opcode.
	OpSubscribe   byte = 0x10
	OpMove        byte = 0x11
	OpUnsubscribe byte = 0x12

	// OpMetrics retrieves the server's metrics snapshot: flattened
	// (name, value) pairs sorted by name — counters (ops by opcode,
	// cache hits, slow-consumer disconnects, maintenance events),
	// gauges (live objects, imbalance, active subscriptions) and
	// histogram derivations (<name>.count/.sum_ns/.max_ns/.p50_ns/
	// .p99_ns). Clients must ignore names they do not recognize: the
	// set grows without a protocol bump.
	//
	// Payload: empty → u32 n, n × (str name, f64 value)
	OpMetrics byte = 0x13
)

// OpName returns a stable lower-case mnemonic for a request opcode
// ("pnn", "batch_pnn", …) — the per-opcode metric naming the server's
// ops.* counters use — or "unknown" for an unassigned byte.
func OpName(op byte) string {
	switch op {
	case OpPing:
		return "ping"
	case OpStats:
		return "stats"
	case OpPNN:
		return "pnn"
	case OpTopK:
		return "topk"
	case OpPossibleKNN:
		return "knn"
	case OpRNN:
		return "rnn"
	case OpCellArea:
		return "cell_area"
	case OpPartitions:
		return "partitions"
	case OpInsert:
		return "insert"
	case OpBatchPNN:
		return "batch_pnn"
	case OpBatchTopK:
		return "batch_topk"
	case OpBatchKNN:
		return "batch_knn"
	case OpBatchThreshold:
		return "batch_threshold"
	case OpDelete:
		return "delete"
	case OpBatchDelete:
		return "batch_delete"
	case OpSubscribe:
		return "subscribe"
	case OpMove:
		return "move"
	case OpUnsubscribe:
		return "unsubscribe"
	case OpMetrics:
		return "metrics"
	}
	return "unknown"
}

// MaxBatchPoints bounds the query-point count of one batch frame: 2^15
// points fill half a MaxFrame, leaving room for the response of typical
// answer densities.
const MaxBatchPoints = 1 << 15

// Response statuses.
const (
	StatusOK  byte = 0x00
	StatusErr byte = 0x01
)

// PushAnswerDelta is the kind of a server-pushed answer-delta frame:
// the only OUT-OF-BAND server→client frame. Responses are written
// strictly in request order; pushes interleave between them at frame
// granularity (never mid-frame) and do not consume a request slot, so a
// pipelined client routes them by kind before FIFO-matching responses.
//
// Payload (little endian):
//
//	u64 sub   — subscription id
//	u64 seq   — per-session push sequence, 1-based, gap-free
//	u8  flags — 0: answer delta, 1: session error (terminal)
//	flags 0:  f64 cx, f64 cy, f64 r           (the new safe circle)
//	          u32 nAdd, nAdd × i32 id         (sorted ascending)
//	          u32 nRem, nRem × i32 id         (sorted ascending)
//	flags 1:  str message                     (the server dropped the session)
//
// Deltas are relative to the answer set the client last held (the
// subscribe response's initial set, then each applied delta), so
// applying them in sequence reconstructs exactly the answer set
// per-move polling would return. The server pushes a delta only when
// the set actually changed — a re-evaluation that confirms the same
// answers is silent.
const PushAnswerDelta byte = 0x80

// MaxFrame bounds a frame's post-length size (kind + payload + crc).
const MaxFrame = 1 << 20

// AppendFrame appends one encoded frame to dst and returns the extended
// slice — the one frame encoder, so callers can coalesce many frames
// into one buffer and one write. An oversized frame is an error and
// leaves dst unchanged.
func AppendFrame(dst []byte, kind byte, payload []byte) ([]byte, error) {
	n := 1 + len(payload) + 4
	if n > MaxFrame {
		return dst, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	start := len(dst)
	dst = append(dst, kind)
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// WriteFrame writes one frame with one Write call.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	buf, err := AppendFrame(nil, kind, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one frame, verifying length bounds and checksum. It
// issues two reads per frame, so over a socket r should be buffered.
func ReadFrame(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 5 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: invalid frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	want := binary.LittleEndian.Uint32(body[n-4:])
	if got := crc32.ChecksumIEEE(body[:n-4]); got != want {
		return 0, nil, fmt.Errorf("wire: checksum mismatch (%08x != %08x)", got, want)
	}
	return body[0], body[1 : n-4], nil
}

// Buffer is an append-only payload builder.
type Buffer struct {
	b []byte
}

// Bytes returns the accumulated payload.
func (e *Buffer) Bytes() []byte { return e.b }

// U8 appends a single byte.
func (e *Buffer) U8(v byte) { e.b = append(e.b, v) }

// U16 appends a uint16.
func (e *Buffer) U16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }

// U32 appends a uint32.
func (e *Buffer) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// U64 appends a uint64.
func (e *Buffer) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I32 appends an int32.
func (e *Buffer) I32(v int32) { e.U32(uint32(v)) }

// F64 appends a float64.
func (e *Buffer) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed UTF-8 string.
func (e *Buffer) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Reader is a cursor over a payload with sticky error handling.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, if any.
func (d *Reader) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Reader) Remaining() int { return len(d.b) - d.off }

func (d *Reader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("wire: payload truncated at offset %d (need %d of %d)", d.off, n, len(d.b))
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// Take reads the next n raw bytes; the result aliases the payload. A
// negative n or one past the end sets the sticky error and returns nil.
func (d *Reader) Take(n int) []byte {
	if n < 0 {
		if d.err == nil {
			d.err = fmt.Errorf("wire: negative length %d at offset %d", n, d.off)
		}
		return nil
	}
	return d.take(n)
}

// U8 reads a single byte.
func (d *Reader) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a uint16.
func (d *Reader) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (d *Reader) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Reader) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads an int32.
func (d *Reader) I32() int32 { return int32(d.U32()) }

// F64 reads a float64.
func (d *Reader) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string (bounded by the payload size).
func (d *Reader) Str() string { return string(d.Bytes()) }

// Bytes reads a length-prefixed byte string (bounded by the payload
// size). The result aliases the payload.
func (d *Reader) Bytes() []byte {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.err = fmt.Errorf("wire: byte string length %d exceeds remaining %d", n, d.Remaining())
		return nil
	}
	return d.take(n)[:n:n]
}
