package server

import (
	"fmt"
	"sync"

	"uvdiagram"
	"uvdiagram/internal/wire"
)

// Client-side subscription support. Subscribe opens a server-side
// moving-query session; Move streams positions fire-and-forget; the
// server pushes answer deltas out-of-band and the Subscription applies
// them, so AnswerIDs always reconstructs exactly the answer set
// per-move polling would have returned (pushes for one session arrive
// in a gap-free sequence, and the server flushes move-triggered deltas
// before any later frame of the connection — a Ping after a burst of
// moves is a delta barrier).

// Delta is one server-pushed answer-set change.
type Delta struct {
	// Seq is the per-session push sequence (1-based, gap-free).
	Seq uint64
	// Added and Removed are the ids entering and leaving the answer set,
	// sorted ascending. Both are nil on a terminal error delta.
	Added, Removed []int32
	// Safe is the safe circle after the change (zero on Err).
	Safe uvdiagram.Circle
	// Err is set on a terminal session-error push: the server dropped
	// the session (e.g. the position left the domain) and no further
	// deltas will arrive.
	Err error
}

// Subscription is one open moving-query subscription.
type Subscription struct {
	c       *Client
	id      uint64
	onDelta func(Delta) // may be nil; runs on the client's read loop

	mu   sync.Mutex
	ids  []int32 // reconstructed current answer set (sorted)
	safe uvdiagram.Circle
	seq  uint64
	err  error // terminal session error, if any
}

// SubscriptionStats are the server-side session counters returned by
// Close.
type SubscriptionStats struct {
	Moves      uint64 // successful server-side Move evaluations
	Recomputes uint64 // actual re-evaluations (safe-circle exits + churn)
	IndexIOs   uint64 // leaf pages read across re-evaluations
	Pushes     uint64 // delta frames pushed
}

// Subscribe opens a subscription at q. onDelta, when non-nil, is
// invoked on the client's read loop for every push (after it has been
// applied to the subscription's answer set) — it must not block and
// must not call into the Client synchronously. A terminal Delta.Err
// (the server dropped the session) is delivered the same way.
func (c *Client) Subscribe(q uvdiagram.Point, onDelta func(Delta)) (*Subscription, error) {
	var b wire.Buffer
	b.F64(q.X)
	b.F64(q.Y)
	sub := &Subscription{c: c, onDelta: onDelta}
	call := c.goWithSub(wire.OpSubscribe, b.Bytes(), sub)
	<-call.Done
	if call.Err != nil {
		return nil, call.Err
	}
	return sub, nil
}

// registerSub decodes a subscribe response and publishes the
// subscription — called from the read loop BEFORE the call completes,
// so a delta arriving right behind the response finds the subscription
// registered.
func (c *Client) registerSub(sub *Subscription, r *wire.Reader) error {
	sub.id = r.U64()
	sub.safe.C = uvdiagram.Pt(r.F64(), r.F64())
	sub.safe.R = r.F64()
	ids, err := decodeIDs(r)
	if err != nil {
		return fmt.Errorf("client: malformed subscribe response: %w", err)
	}
	sub.ids = ids
	c.submu.Lock()
	if c.subs == nil {
		c.subs = make(map[uint64]*Subscription)
	}
	c.subs[sub.id] = sub
	c.submu.Unlock()
	return nil
}

// handlePush decodes one out-of-band PushAnswerDelta frame and applies
// it. A malformed push poisons the connection (the server never sends
// one; the stream can no longer be trusted). A push for an unknown
// subscription id is dropped: it can only be the tail of a race with a
// local Close.
func (c *Client) handlePush(payload []byte) error {
	r := wire.NewReader(payload)
	id, seq, flags := r.U64(), r.U64(), r.U8()
	if err := r.Err(); err != nil {
		return fmt.Errorf("client: malformed push frame: %w", err)
	}
	d := Delta{Seq: seq}
	switch flags {
	case 0:
		d.Safe.C = uvdiagram.Pt(r.F64(), r.F64())
		d.Safe.R = r.F64()
		var err error
		if d.Added, err = decodeIDs(r); err != nil {
			return fmt.Errorf("client: malformed push frame: %w", err)
		}
		if d.Removed, err = decodeIDs(r); err != nil {
			return fmt.Errorf("client: malformed push frame: %w", err)
		}
	case 1:
		msg := r.Str()
		if err := r.Err(); err != nil {
			return fmt.Errorf("client: malformed push frame: %w", err)
		}
		d.Err = fmt.Errorf("server: %s", msg)
	default:
		return fmt.Errorf("client: unknown push flags 0x%02x", flags)
	}
	if rem := r.Remaining(); rem != 0 {
		return fmt.Errorf("client: push frame has %d trailing bytes", rem)
	}

	c.submu.Lock()
	sub := c.subs[id]
	c.submu.Unlock()
	if sub == nil {
		return nil
	}
	if err := sub.apply(d); err != nil {
		return err
	}
	if d.Err != nil {
		c.submu.Lock()
		delete(c.subs, id)
		c.submu.Unlock()
	}
	if sub.onDelta != nil {
		sub.onDelta(d)
	}
	return nil
}

// apply folds one delta into the reconstructed answer set.
func (s *Subscription) apply(d Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.Seq != s.seq+1 {
		return fmt.Errorf("client: subscription %d push sequence hole (got %d, want %d)", s.id, d.Seq, s.seq+1)
	}
	s.seq = d.Seq
	if d.Err != nil {
		s.err = d.Err
		return nil
	}
	ids, err := applyDelta(s.ids, d.Added, d.Removed)
	if err != nil {
		return fmt.Errorf("client: subscription %d: %w", s.id, err)
	}
	s.ids = ids
	s.safe = d.Safe
	return nil
}

// applyDelta merges sorted added/removed id lists into a sorted set. A
// delta inconsistent with the held set — a removed id not held, an
// added id already held, an unsorted or duplicated list — is an error:
// the server only ever pushes exact diffs, so an inconsistent one means
// the stream can no longer reconstruct the answer set.
func applyDelta(ids, added, removed []int32) ([]int32, error) {
	for k := 1; k < len(added); k++ {
		if added[k-1] >= added[k] {
			return nil, fmt.Errorf("delta id list unsorted at %d", added[k])
		}
	}
	out := make([]int32, 0, max(len(ids)+len(added)-len(removed), 0))
	i := 0
	for _, rm := range removed {
		for i < len(ids) && ids[i] < rm {
			out = append(out, ids[i])
			i++
		}
		if i >= len(ids) || ids[i] != rm {
			return nil, fmt.Errorf("delta removes id %d the client does not hold", rm)
		}
		i++ // drop it
	}
	out = append(out, ids[i:]...)
	if len(added) == 0 {
		return out, nil
	}
	merged := make([]int32, 0, len(out)+len(added))
	i, j := 0, 0
	for i < len(out) && j < len(added) {
		switch {
		case out[i] == added[j]:
			return nil, fmt.Errorf("delta adds id %d the client already holds", added[j])
		case out[i] < added[j]:
			merged = append(merged, out[i])
			i++
		default:
			merged = append(merged, added[j])
			j++
		}
	}
	merged = append(merged, out[i:]...)
	merged = append(merged, added[j:]...)
	return merged, nil
}

// ID returns the server-assigned subscription id.
func (s *Subscription) ID() uint64 { return s.id }

// AnswerIDs returns a copy of the current reconstructed answer set.
func (s *Subscription) AnswerIDs() []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int32(nil), s.ids...)
}

// SafeRegion returns the most recently pushed safe circle. Strictly
// inside it, moves cannot change the answer set (for the index state it
// was computed at — churn invalidates it server-side).
func (s *Subscription) SafeRegion() uvdiagram.Circle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.safe
}

// Err returns the terminal session error, if the server dropped the
// session.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Move streams a new position, fire-and-forget: it returns once the
// frame is queued for the client's writer goroutine — queued, not yet
// written — without waiting for the write or any server evaluation.
// Moves queued together leave in one write. It waits only while the
// write queue is full, and fails only once the client has failed or
// closed; a later write failure fails the client. If the move changes
// the answer set, a delta push follows; a Ping afterwards guarantees
// every delta for previously queued moves has been applied.
func (s *Subscription) Move(q uvdiagram.Point) error {
	var b wire.Buffer
	b.U64(s.id)
	b.F64(q.X)
	b.F64(q.Y)
	return s.c.send(wire.OpMove, b.Bytes())
}

// Close unsubscribes and returns the server-side session counters.
func (s *Subscription) Close() (SubscriptionStats, error) {
	var b wire.Buffer
	b.U64(s.id)
	r, err := s.c.roundTrip(wire.OpUnsubscribe, b.Bytes())
	s.c.submu.Lock()
	delete(s.c.subs, s.id)
	s.c.submu.Unlock()
	if err != nil {
		return SubscriptionStats{}, err
	}
	st := SubscriptionStats{
		Moves:      r.U64(),
		Recomputes: r.U64(),
		IndexIOs:   r.U64(),
		Pushes:     r.U64(),
	}
	return st, r.Err()
}
