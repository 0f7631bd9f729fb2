package server

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"uvdiagram"
	"uvdiagram/internal/wire"
)

// Server-side subscription engine. A subscription is one moving-query
// ContinuousPNN session living on the server: the client streams
// fire-and-forget OpMove frames, the server evaluates each against the
// session's safe circle, and the client hears back only through
// out-of-band PushAnswerDelta frames — pushed exactly when the answer
// set changed, on a safe-circle exit or when an Insert/Delete
// invalidated the session's shard. Sessions on shards a write did not
// touch are provably unaffected (the shard index's mutation generation
// is unchanged) and get neither a re-evaluation beyond one atomic
// comparison nor a push.
//
// Delivery ordering, the contract the client's delta reconstruction
// rests on:
//
//   - A move-triggered delta is written before any LATER frame from the
//     same connection is even decoded (moves run inline on the decode
//     loop), so a Ping queued after a burst of moves flushes their
//     deltas.
//   - Churn-triggered deltas for EVERY subscriber are written before
//     the triggering Insert/Delete/BatchDelete response is released to
//     the mutating client.
//   - Per session, pushes carry a gap-free 1-based sequence, and all
//     writes to one connection are serialized, so the client can detect
//     any hole.

// One out-of-band push write is bounded by Config.PushTimeout (default
// 5s). A subscriber that stopped reading long enough for its socket
// buffer to fill would otherwise stall whoever produces its deltas
// (another connection's decode loop, after a write); instead its
// connection is poisoned — it could not have reconstructed the answer
// set past a dropped delta anyway. Each such disconnect is counted in
// the push.slow_consumer_disconnects metric.

// connState is one connection's write path and subscription table. All
// frames — ordered responses from the writer goroutine and out-of-band
// pushes — are appended to one buffered writer under wmu, so frames
// never interleave mid-frame and a flush puts everything appended
// before it on the wire in order.
type connState struct {
	s    *Server
	conn net.Conn
	wmu  sync.Mutex    // serializes every frame append and flush
	bw   *bufio.Writer // the connection's write buffer (guarded by wmu)

	mu   sync.Mutex          // guards subs
	subs map[uint64]*session // sessions opened on THIS connection
}

// appendFrame encodes one frame into the write buffer; the caller holds
// wmu.
func (cs *connState) appendFrame(kind byte, payload []byte) error {
	buf, err := wire.AppendFrame(cs.bw.AvailableBuffer(), kind, payload)
	if err != nil {
		return err
	}
	if _, err := cs.bw.Write(buf); err != nil {
		return err
	}
	cs.s.metrics.framesOut.Inc()
	return nil
}

// respond appends one response frame and, when flush is set, puts the
// buffer on the wire. Response writes block without a deadline.
func (cs *connState) respond(sl *slot, flush bool) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	if err := cs.appendFrame(sl.status, sl.payload); err != nil {
		return err
	}
	if !flush {
		return nil
	}
	return cs.bw.Flush()
}

// push writes one out-of-band push frame and flushes at once, under a
// Config.PushTimeout write deadline.
func (cs *connState) push(payload []byte) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	cs.conn.SetWriteDeadline(time.Now().Add(cs.s.cfg.PushTimeout))
	defer cs.conn.SetWriteDeadline(time.Time{})
	if err := cs.appendFrame(wire.PushAnswerDelta, payload); err != nil {
		return err
	}
	return cs.bw.Flush()
}

// session is one server-side moving-query subscription: the root
// continuous cursor, the answer set the client currently holds, and the
// push sequence.
//
// Lock order: the DB lock (Server.mu) is always acquired BEFORE a
// session's mu, and Server.submu / connState.mu are never held while
// acquiring either — the move path, the churn notifier and teardown all
// follow this order.
//
// Lifecycle: closed is the session's whole state machine and only ever
// goes false → true, under mu. register publishes a session to
// Server.subs only while it is still open (checked under mu, so a
// teardown that won the race leaves nothing behind); every teardown
// path sets closed under mu FIRST and calls unregister afterwards, and
// unregister is the only way out of the tables.
type session struct {
	id uint64
	cs *connState

	mu     sync.Mutex
	sess   *uvdiagram.ContinuousPNN
	last   []int32 // answer set the client holds (copy, sorted)
	seq    uint64  // per-session push sequence, 1-based
	pushes uint64
	closed bool
}

// pushDelta diffs ids against the answer set the client holds and, when
// anything changed, writes one delta push frame. The caller holds
// ss.mu; the DB lock is not required — ids is the session's answer
// slice, stable until the session's next advance, which ss.mu excludes.
func (ss *session) pushDelta(ids []int32, safe uvdiagram.Circle) {
	added, removed := diffIDs(ss.last, ids)
	if len(added) == 0 && len(removed) == 0 {
		return
	}
	ss.seq++
	ss.pushes++
	var b wire.Buffer
	b.U64(ss.id)
	b.U64(ss.seq)
	b.U8(0)
	b.F64(safe.C.X)
	b.F64(safe.C.Y)
	b.F64(safe.R)
	b.U32(uint32(len(added)))
	for _, id := range added {
		b.I32(id)
	}
	b.U32(uint32(len(removed)))
	for _, id := range removed {
		b.I32(id)
	}
	m := ss.cs.s.metrics
	t0 := time.Now()
	if err := ss.cs.push(b.Bytes()); err != nil {
		m.slowConsumers.Inc()
		ss.cs.conn.Close() // poisons the subscriber's connection
		return
	}
	m.pushFlush.Observe(time.Since(t0))
	m.pushDeltas.Inc()
	ss.last = append(ss.last[:0], ids...)
}

// fail pushes a terminal session-error delta and marks the session
// closed (the caller holds ss.mu and unregisters afterwards). The
// connection — and its other sessions — stay healthy.
func (ss *session) fail(cause error) {
	ss.seq++
	ss.closed = true
	var b wire.Buffer
	b.U64(ss.id)
	b.U64(ss.seq)
	b.U8(1)
	b.Str(cause.Error())
	if err := ss.cs.push(b.Bytes()); err != nil {
		ss.cs.s.metrics.slowConsumers.Inc()
		ss.cs.conn.Close()
	}
}

// diffIDs returns the ids in cur but not prev (added) and in prev but
// not cur (removed); both inputs and outputs are sorted ascending.
func diffIDs(prev, cur []int32) (added, removed []int32) {
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch {
		case prev[i] == cur[j]:
			i++
			j++
		case prev[i] < cur[j]:
			removed = append(removed, prev[i])
			i++
		default:
			added = append(added, cur[j])
			j++
		}
	}
	removed = append(removed, prev[i:]...)
	added = append(added, cur[j:]...)
	return added, removed
}

// register publishes a session to the server-wide table the churn
// notifier sweeps. It runs from the writer goroutine AFTER the
// subscribe response is on the wire, so no push can ever precede the
// response that tells the client its subscription id; the staleness gap
// this leaves (a write landing between session creation and
// registration) is closed by the revalidation below.
//
// The client knows its id by then, so a Move, an Unsubscribe or the
// connection's teardown may already have closed the session: register
// is a no-op on a closed session (its closer has unregistered it, or is
// about to, and must not find it re-inserted afterwards).
func (s *Server) register(ss *session) {
	if s.beforeRegister != nil {
		s.beforeRegister()
	}
	s.mu.RLock()
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		s.mu.RUnlock()
		return
	}
	s.submu.Lock()
	s.subs[ss.id] = ss
	s.submu.Unlock()

	// Close the creation→registration window: if a write landed in
	// between, the session's initial answer predates it and the notifier
	// never saw the session. Revalidate once — the untouched case is one
	// atomic generation comparison.
	ids, re, err := ss.sess.Revalidate()
	safe := ss.sess.SafeRegion()
	s.mu.RUnlock()
	switch {
	case err != nil:
		ss.fail(err)
		ss.mu.Unlock()
		s.unregister(ss)
	case re:
		ss.pushDelta(ids, safe)
		ss.mu.Unlock()
	default:
		ss.mu.Unlock()
	}
}

// unregister removes a session from the server-wide and per-connection
// tables. Safe to call more than once.
func (s *Server) unregister(ss *session) {
	s.submu.Lock()
	delete(s.subs, ss.id)
	s.submu.Unlock()
	ss.cs.mu.Lock()
	delete(ss.cs.subs, ss.id)
	ss.cs.mu.Unlock()
}

// dropConnSessions tears down every session of a closing connection.
func (s *Server) dropConnSessions(cs *connState) {
	cs.mu.Lock()
	subs := make([]*session, 0, len(cs.subs))
	for _, ss := range cs.subs {
		subs = append(subs, ss)
	}
	cs.mu.Unlock()
	for _, ss := range subs {
		ss.mu.Lock()
		ss.closed = true
		ss.mu.Unlock()
		s.unregister(ss)
	}
}

// handleSubscribe opens a subscription session at the payload's point
// and answers with the id, the safe circle and the initial answer set.
// It runs on the worker pool like any query; registration for churn
// notification is deferred to the response write (see register).
func (s *Server) handleSubscribe(cs *connState, sl *slot, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	q := uvdiagram.Pt(r.F64(), r.F64())
	if err := payloadDone(r, "subscribe"); err != nil {
		return nil, err
	}
	s.mu.RLock()
	sess, err := s.db.NewContinuousPNN(q)
	if err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	ids := sess.AnswerIDs()
	safe := sess.SafeRegion()
	s.mu.RUnlock()

	ss := &session{cs: cs, sess: sess, last: append([]int32(nil), ids...)}
	s.submu.Lock()
	s.subid++
	ss.id = s.subid
	s.submu.Unlock()
	cs.mu.Lock()
	cs.subs[ss.id] = ss
	cs.mu.Unlock()
	sl.written = func() { s.register(ss) }

	var b wire.Buffer
	b.U64(ss.id)
	b.F64(safe.C.X)
	b.F64(safe.C.Y)
	b.F64(safe.R)
	b.U32(uint32(len(ss.last)))
	for _, id := range ss.last {
		b.I32(id)
	}
	return b.Bytes(), nil
}

// handleMove advances one session. It runs inline on the decode loop —
// no response frame exists — and a returned error poisons the
// connection (malformed payload only; see the OpMove wire doc).
func (s *Server) handleMove(cs *connState, payload []byte) error {
	r := wire.NewReader(payload)
	id := r.U64()
	q := uvdiagram.Pt(r.F64(), r.F64())
	if err := payloadDone(r, "move"); err != nil {
		return err
	}
	cs.mu.Lock()
	ss := cs.subs[id]
	cs.mu.Unlock()
	if ss == nil {
		// Either a benign race with a server-side session drop whose
		// error push is still in flight, or a client bug; neither can
		// desync the stream, so ignore it.
		return nil
	}
	s.mu.RLock()
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		s.mu.RUnlock()
		return nil
	}
	ids, _, err := ss.sess.Move(q)
	safe := ss.sess.SafeRegion()
	s.mu.RUnlock()
	if err != nil {
		ss.fail(err)
		ss.mu.Unlock()
		s.unregister(ss)
		return nil
	}
	ss.pushDelta(ids, safe)
	ss.mu.Unlock()
	return nil
}

// handleUnsubscribe closes a session and answers with its final
// counters.
func (s *Server) handleUnsubscribe(cs *connState, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	id := r.U64()
	if err := payloadDone(r, "unsubscribe"); err != nil {
		return nil, err
	}
	cs.mu.Lock()
	ss := cs.subs[id]
	cs.mu.Unlock()
	if ss == nil {
		return nil, fmt.Errorf("server: unsubscribe for unknown subscription %d", id)
	}
	ss.mu.Lock()
	ss.closed = true
	st := ss.sess.Stats()
	pushes := ss.pushes
	ss.mu.Unlock()
	s.unregister(ss)
	var b wire.Buffer
	b.U64(uint64(st.Moves))
	b.U64(uint64(st.Recomputes))
	b.U64(uint64(st.IndexIOs))
	b.U64(pushes)
	return b.Bytes(), nil
}

// notifySessions re-validates every live subscription after a write
// landed, pushing answer deltas to exactly the sessions whose answers
// changed. It runs synchronously on the mutating connection's decode
// loop BEFORE the write's response is released: when an Insert or
// Delete returns to its caller, every resulting delta is already on the
// wire to every subscriber. The sweep is one bulk AdvanceAll pass —
// on the batch worker pool, re-opens after a Compact handled centrally —
// and sessions on shards the write did not touch cost one atomic
// generation comparison each.
func (s *Server) notifySessions() {
	s.submu.RLock()
	if len(s.subs) == 0 {
		s.submu.RUnlock()
		return
	}
	sessions := make([]*session, 0, len(s.subs))
	for _, ss := range s.subs {
		sessions = append(sessions, ss)
	}
	s.submu.RUnlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })

	// DB read lock first, then the session locks — the order the move
	// path uses — so the bulk advance cannot deadlock against it.
	s.mu.RLock()
	live := make([]*session, 0, len(sessions))
	cursors := make([]*uvdiagram.ContinuousPNN, 0, len(sessions))
	for _, ss := range sessions {
		ss.mu.Lock()
		if ss.closed {
			ss.mu.Unlock()
			continue
		}
		live = append(live, ss)
		cursors = append(cursors, ss.sess)
	}
	recomputed, errs := s.db.AdvanceAll(cursors, nil, &uvdiagram.BatchOptions{Workers: s.cfg.Workers})
	s.mu.RUnlock()

	var failed []*session
	for i, ss := range live {
		switch {
		case errs[i] != nil:
			ss.fail(errs[i])
			failed = append(failed, ss)
		case recomputed[i]:
			ss.pushDelta(ss.sess.AnswerIDs(), ss.sess.SafeRegion())
		}
		ss.mu.Unlock()
	}
	for _, ss := range failed {
		s.unregister(ss)
	}
}

// Subscriptions returns the number of live subscription sessions across
// all connections.
func (s *Server) Subscriptions() int {
	s.submu.RLock()
	defer s.submu.RUnlock()
	return len(s.subs)
}
