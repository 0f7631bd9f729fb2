package server

import (
	"errors"
	"net"
	"testing"
	"time"

	"uvdiagram"
	"uvdiagram/internal/wire"
)

// queued returns the bytes of frames waiting for the client's writer.
func (c *Client) queued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.out)
}

// TestFlushCoalescesFinishedResponses pins the response writer's flush
// rule: it appends every finished response in request order and flushes
// only when the next one is unfinished or nothing is pending. Slot 1 (a
// Stats) is held unfinished while slots 2–64 (Pings) finish; releasing
// it must put all 64 responses on the wire in at most 2 writes, in
// order. A lone request with nothing behind it must still be answered.
func TestFlushCoalescesFinishedResponses(t *testing.T) {
	const n = 64 // the default window: all 64 slots fit in pending at once
	srv := New(testDB(t, 30), t.Logf)
	held, release := make(chan struct{}), make(chan struct{})
	pings := make(chan struct{}, n)
	srv.aroundFinish = func(op byte, finish func()) {
		if op == wire.OpStats {
			close(held)
			<-release
			finish()
			return
		}
		finish()
		pings <- struct{}{}
	}
	cli := serveForTest(t, srv)
	m := srv.metrics
	writes0 := m.connWrites.Value()

	calls := make([]*Call, n)
	calls[0] = cli.Go(wire.OpStats, nil, nil)
	for i := 1; i < n; i++ {
		calls[i] = cli.Go(wire.OpPing, nil, nil)
	}
	<-held
	for i := 1; i < n; i++ {
		<-pings
	}
	if w := m.connWrites.Value() - writes0; w != 0 {
		t.Fatalf("%d writes while slot 1 was unfinished", w)
	}
	close(release)
	for i, call := range calls {
		r := awaitCall(t, call)
		// Stats answers a non-empty payload, Ping an empty one: a
		// misordered response lands on the wrong call.
		if (i == 0) != (r.Remaining() > 0) {
			t.Fatalf("call %d got a %d-byte payload: responses out of order", i, r.Remaining())
		}
	}
	if w := m.connWrites.Value() - writes0; w > 2 {
		t.Fatalf("%d finished responses took %d writes, want ≤ 2", n, w)
	}
	if f := m.framesOut.Value(); f != n {
		t.Fatalf("conn.frames_out = %d, want %d", f, n)
	}

	// A lone request with no traffic after it is flushed at once.
	writes0 = m.connWrites.Value()
	awaitCall(t, cli.Go(wire.OpPing, nil, nil))
	if w := m.connWrites.Value() - writes0; w != 1 {
		t.Fatalf("a lone response took %d writes, want 1", w)
	}
}

// awaitCall waits for call's successful response, failing the test
// after 5s — an unflushed response never arrives.
func awaitCall(t *testing.T, call *Call) *wire.Reader {
	t.Helper()
	select {
	case <-call.Done:
	case <-time.After(5 * time.Second):
		t.Fatal("response never arrived")
	}
	r, err := call.Reader()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestClientBackpressure streams moves to a peer that never reads: the
// client's write queue must never hold more than maxQueued bytes, so
// the mover must end up waiting, and Close must release it with an
// error.
func TestClientBackpressure(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	cli := NewClient(local)
	defer cli.Close()
	sub := &Subscription{c: cli, id: 1}

	// Far more moves than the queue and the writer's in-flight buffer
	// hold between them.
	const frame = 4 + 1 + 24 + 4
	moves := 8 * maxQueued / frame
	done := make(chan error, 1)
	go func() {
		for i := 0; i < moves; i++ {
			if err := sub.Move(uvdiagram.Pt(1, 2)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		q := cli.queued()
		if q > maxQueued {
			t.Fatalf("write queue holds %d bytes, bound %d", q, maxQueued)
		}
		if q+frame > maxQueued {
			break // full: the next move must wait
		}
		select {
		case err := <-done:
			t.Fatalf("mover finished (err %v) against a peer that never reads", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("write queue stuck at %d bytes below the bound", q)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("mover finished (err %v) with the write queue full", err)
	default:
	}

	cli.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("mover finished without an error after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the waiting mover blocked")
	}
	if q := cli.queued(); q != 0 {
		t.Fatalf("%d queued bytes survive Close", q)
	}
}

// TestClientClose: Close returns only after the writer goroutine has
// exited — here it is parked in a write to a peer that never reads —
// the outstanding call fails, and a request or move issued afterwards
// fails at once.
func TestClientClose(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	cli := NewClient(local)
	pending := cli.Go(wire.OpPing, nil, nil)
	deadline := time.Now().Add(5 * time.Second)
	for cli.queued() > 0 { // the writer took the frame and is stuck writing it
		if time.Now().After(deadline) {
			t.Fatal("writer never took the queued frame")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cli.writerDone:
	default:
		t.Fatal("writer goroutine still running after Close returned")
	}
	select {
	case <-pending.Done:
		if pending.Err == nil {
			t.Fatal("outstanding call succeeded after Close")
		}
	default:
		t.Fatal("outstanding call not failed by Close")
	}
	call := cli.Go(wire.OpPing, nil, nil)
	select {
	case <-call.Done:
		if !errors.Is(call.Err, net.ErrClosed) {
			t.Fatalf("Go after Close: err %v, want net.ErrClosed", call.Err)
		}
	default:
		t.Fatal("Go after Close did not fail at once")
	}
	if err := (&Subscription{c: cli, id: 1}).Move(uvdiagram.Pt(1, 2)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Move after Close: err %v, want net.ErrClosed", err)
	}
}
