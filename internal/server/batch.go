package server

import (
	"fmt"

	"uvdiagram"
	"uvdiagram/internal/wire"
)

// Batch payload codec, shared by the server's dispatch and the client's
// batch helpers. The request side carries a point list; the response
// side carries one answer list (or ID list) per query, prefixed with
// the echoed query count.

// checkBatchSize rejects client-side batches the protocol cannot
// carry, keeping the connection healthy (the frame is never sent).
func checkBatchSize(qs []uvdiagram.Point) error {
	if len(qs) > wire.MaxBatchPoints {
		return fmt.Errorf("client: batch of %d points exceeds limit %d; split the batch", len(qs), wire.MaxBatchPoints)
	}
	return nil
}

// encodePoints appends a u32 count and the points to b.
func encodePoints(b *wire.Buffer, qs []uvdiagram.Point) {
	b.U32(uint32(len(qs)))
	for _, q := range qs {
		b.F64(q.X)
		b.F64(q.Y)
	}
}

// decodePoints reads a bounds-checked point list. The count is capped
// by wire.MaxBatchPoints and validated against the bytes actually
// present, so a hostile count can neither over-allocate nor run past
// the payload.
func decodePoints(r *wire.Reader) ([]uvdiagram.Point, error) {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > wire.MaxBatchPoints {
		return nil, fmt.Errorf("batch of %d points exceeds limit %d", n, wire.MaxBatchPoints)
	}
	if 16*n > r.Remaining() {
		return nil, fmt.Errorf("batch count %d exceeds payload (%d bytes remaining)", n, r.Remaining())
	}
	qs := make([]uvdiagram.Point, n)
	for i := range qs {
		qs[i] = uvdiagram.Pt(r.F64(), r.F64())
	}
	return qs, r.Err()
}

// encodeAnswerLists encodes one answer list per query.
func encodeAnswerLists(lists [][]uvdiagram.Answer) []byte {
	var b wire.Buffer
	b.U32(uint32(len(lists)))
	for _, answers := range lists {
		b.U32(uint32(len(answers)))
		for _, a := range answers {
			b.I32(a.ID)
			b.F64(a.Prob)
		}
	}
	return b.Bytes()
}

// decodeAnswerLists is the client-side inverse of encodeAnswerLists.
func decodeAnswerLists(r *wire.Reader) ([][]uvdiagram.Answer, error) {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > r.Remaining() { // each list costs ≥ 4 bytes
		return nil, fmt.Errorf("client: batch count %d exceeds payload", n)
	}
	lists := make([][]uvdiagram.Answer, n)
	for i := range lists {
		answers, err := decodeAnswers(r)
		if err != nil {
			return nil, err
		}
		lists[i] = answers
	}
	return lists, r.Err()
}

// encodeIDLists encodes one object-ID list per query.
func encodeIDLists(lists [][]int32) []byte {
	var b wire.Buffer
	b.U32(uint32(len(lists)))
	for _, ids := range lists {
		b.U32(uint32(len(ids)))
		for _, id := range ids {
			b.I32(id)
		}
	}
	return b.Bytes()
}

// decodeIDLists is the client-side inverse of encodeIDLists.
func decodeIDLists(r *wire.Reader) ([][]int32, error) {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > r.Remaining() {
		return nil, fmt.Errorf("client: batch count %d exceeds payload", n)
	}
	lists := make([][]int32, n)
	for i := range lists {
		m := int(r.U32())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if 4*m > r.Remaining() {
			return nil, fmt.Errorf("client: id count %d exceeds payload", m)
		}
		ids := make([]int32, m)
		for j := range ids {
			ids[j] = r.I32()
		}
		lists[i] = ids
	}
	return lists, r.Err()
}

// borrowWorkers takes as many free tokens from the server-wide worker
// pool as are available (up to max), without blocking. The returned
// release must be called when the fan-out is done.
func (s *Server) borrowWorkers(max int) (n int, release func()) {
	for n < max {
		select {
		case s.sem <- struct{}{}:
			n++
		default:
			return n, func() { s.releaseWorkers(n) }
		}
	}
	return n, func() { s.releaseWorkers(n) }
}

func (s *Server) releaseWorkers(n int) {
	for i := 0; i < n; i++ {
		<-s.sem
	}
}

// dispatchBatch handles the batch opcodes. The caller guarantees op is
// one of them. Batches take no server lock: every query in the fan-out
// reads a consistent copy-on-write snapshot on its own, and a write
// landing mid-batch gives each query exactly the pre- or post-write
// state, never a hybrid.
//
// Fan-out width is accounted against the server-wide worker pool: the
// request itself holds one token, and the batch borrows only tokens
// that are currently free — concurrent batches therefore share
// Config.Workers instead of multiplying it.
func (s *Server) dispatchBatch(op byte, r *wire.Reader) ([]byte, error) {
	var k uint32
	var tau float64
	switch op {
	case wire.OpBatchTopK, wire.OpBatchKNN:
		k = r.U32()
	case wire.OpBatchThreshold:
		tau = r.F64()
	}
	qs, err := decodePoints(r)
	if err != nil {
		return nil, err
	}
	if err := payloadDone(r, "batch"); err != nil {
		return nil, err
	}

	borrowed, release := s.borrowWorkers(s.cfg.Workers - 1)
	defer release()
	opts := &uvdiagram.BatchOptions{Workers: 1 + borrowed}

	switch op {
	case wire.OpBatchPNN:
		lists, err := s.db.BatchNN(qs, opts)
		if err != nil {
			return nil, err
		}
		return encodeAnswerLists(lists), nil

	case wire.OpBatchTopK:
		lists, err := s.db.BatchTopKPNN(qs, int(k), opts)
		if err != nil {
			return nil, err
		}
		return encodeAnswerLists(lists), nil

	case wire.OpBatchKNN:
		lists, err := s.db.BatchOrderK(qs, int(k), opts)
		if err != nil {
			return nil, err
		}
		return encodeIDLists(lists), nil

	case wire.OpBatchThreshold:
		lists, err := s.db.BatchThresholdNN(qs, tau, opts)
		if err != nil {
			return nil, err
		}
		return encodeAnswerLists(lists), nil
	}
	return nil, fmt.Errorf("server: unknown batch opcode 0x%02x", op)
}
