package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"uvdiagram/internal/wire"
)

// span is one line of trace-<workload>.jsonl. A root span ("request")
// is one operation sent over the wire; its children are the same
// operation replayed in-process piece by piece, laid end to end from the
// root's start, and "server.other" — what the wire round trip took
// beyond its replayed pieces: queueing, goroutine hand-offs, syscalls.
type span struct {
	Name     string `json:"name"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root
	Req      int    `json:"req"`    // shared by all spans of one request
	Op       string `json:"op"`
	Start    int64  `json:"start_ns"` // offsets from the start of the traced pass
	End      int64  `json:"end_ns"`
	Measured int64  `json:"measured_ns"` // as timed; End-Start is shorter where a replay outran its root
}

// piece is a timed part of a replay; parts are its own children.
type piece struct {
	name  string
	d     time.Duration
	parts []piece
}

func timeIt(name string, f func()) piece {
	t0 := time.Now()
	f()
	return piece{name: name, d: time.Since(t0)}
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
	reqs  int
	// durs[op][name] are the durations as measured, in ns. All spans
	// but "request" and "db.call" are leaves, so for them this is also
	// the self time.
	durs map[string]map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: map[string]map[string][]float64{}}
}

func (t *tracer) record(op, name string, d time.Duration) {
	if t.durs[op] == nil {
		t.durs[op] = map[string][]float64{}
	}
	t.durs[op][name] = append(t.durs[op][name], float64(d))
}

// request times call under a root span, then runs replay and records
// its pieces as the root's children.
func (t *tracer) request(op string, call func() error, replay func() []piece) error {
	start := time.Since(t.t0)
	err := call()
	end := time.Since(t.t0)
	t.reqs++
	root := t.add(span{Name: "request", Req: t.reqs, Op: op, Start: int64(start), End: int64(end), Measured: int64(end - start)})
	if err != nil {
		return err
	}
	t.record(op, "request", end-start)
	pieces := replay()
	other := end - start
	for _, p := range pieces {
		other -= p.d
	}
	t.record(op, "server.other", other) // negative when the replay ran slower than the real thing
	if other > 0 {
		pieces = append(pieces, piece{name: "server.other", d: other})
	}
	t.lay(op, root, pieces)
	return nil
}

// local times an operation made straight into the DB, with no wire
// request of its own, as a parentless "db.call" span.
func (t *tracer) local(op string, call func() error) error {
	start := time.Since(t.t0)
	err := call()
	end := time.Since(t.t0)
	t.reqs++
	t.add(span{Name: "db.call", Req: t.reqs, Op: op, Start: int64(start), End: int64(end), Measured: int64(end - start)})
	if err == nil {
		t.record(op, "db.call", end-start)
	}
	return err
}

func (t *tracer) add(s span) span {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s
}

// lay places pieces end to end inside parent, clipping at its end, and
// records each piece's duration.
func (t *tracer) lay(op string, parent span, pieces []piece) {
	at := parent.Start
	for _, p := range pieces {
		end := min(at+int64(p.d), parent.End)
		s := t.add(span{Name: p.name, Parent: parent.ID, Req: parent.Req, Op: op, Start: at, End: end, Measured: int64(p.d)})
		if p.name != "server.other" {
			t.record(op, p.name, p.d)
		}
		t.lay(op, s, p.parts)
		at = end
	}
}

// med is the median duration of op's spans called name, in unit.
func (t *tracer) med(op, name string, unit time.Duration) float64 {
	return median(t.durs[op][name]) / float64(unit)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// framed replays one frame's trip the way client and server make it:
// encode builds the payload and writes the frame, decode reads the
// frame (checksum included) and parses the payload. The buffer stands
// in for the socket. It returns both pieces and the frame's size.
func framed(side string, kind byte, build func(*wire.Buffer), parse func(*wire.Reader)) (enc, dec piece, size int) {
	var sock bytes.Buffer
	enc = timeIt("wire.encode_"+side, func() {
		var b wire.Buffer
		build(&b)
		if err := wire.WriteFrame(&sock, kind, b.Bytes()); err != nil {
			panic(err) // a bytes.Buffer does not fail; a frame this small is never oversized
		}
	})
	size = sock.Len()
	dec = timeIt("wire.decode_"+side, func() {
		_, payload, err := wire.ReadFrame(&sock)
		if err != nil {
			panic(err) // the frame was written two lines up
		}
		r := wire.NewReader(payload)
		parse(r)
		if err := r.Err(); err != nil {
			panic(err)
		}
	})
	return enc, dec, size
}
