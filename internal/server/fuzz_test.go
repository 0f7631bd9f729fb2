package server

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"uvdiagram"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/wire"
)

// fuzzDB builds one small database shared by all fuzz executions (the
// fuzz target must be fast; the DB is read-only there).
var fuzzDB = sync.OnceValue(func() *uvdiagram.DB {
	cfg := datagen.Config{N: 25, Side: 2000, Diameter: 30, Seed: 3}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		panic(err)
	}
	return db
})

// FuzzBatchPayload throws corrupted batch payloads at the dispatch
// path: whatever the bytes, decoding must fail in-band (an error
// return) or answer correctly — never panic and never over-allocate on
// a hostile count.
func FuzzBatchPayload(f *testing.F) {
	var valid wire.Buffer
	encodePoints(&valid, []uvdiagram.Point{uvdiagram.Pt(100, 100), uvdiagram.Pt(900, 1200)})
	f.Add(uint8(0), valid.Bytes())

	var topk wire.Buffer
	topk.U32(2)
	encodePoints(&topk, []uvdiagram.Point{uvdiagram.Pt(40, 40)})
	f.Add(uint8(1), topk.Bytes())

	var thr wire.Buffer
	thr.F64(0.5)
	encodePoints(&thr, []uvdiagram.Point{uvdiagram.Pt(40, 40)})
	f.Add(uint8(3), thr.Bytes())

	// Hostile count with no points behind it.
	var hostile wire.Buffer
	hostile.U32(1 << 30)
	f.Add(uint8(0), hostile.Bytes())
	f.Add(uint8(2), []byte{})
	f.Add(uint8(1), []byte{1, 2, 3})

	srv := New(fuzzDB(), nil)
	ops := []byte{wire.OpBatchPNN, wire.OpBatchTopK, wire.OpBatchKNN, wire.OpBatchThreshold}
	f.Fuzz(func(t *testing.T, opSel uint8, payload []byte) {
		op := ops[int(opSel)%len(ops)]
		resp, err := srv.dispatch(op, payload)
		if err == nil && resp == nil && op != wire.OpBatchPNN {
			// Batch responses always carry at least the echoed count.
			t.Fatalf("op 0x%02x: nil response without error", op)
		}
	})
}

// FuzzDispatchAnyOpcode widens the fuzz to every opcode byte: no
// request payload may panic the dispatcher. Inserts run against a DB of
// the target's own (a valid one grows it; anything else must fail
// in-band), and the DB must still answer a PNN after each.
func FuzzDispatchAnyOpcode(f *testing.F) {
	f.Add(uint8(wire.OpPNN), []byte{1, 2, 3})
	f.Add(uint8(wire.OpInsert), []byte{})
	f.Add(uint8(0xEE), []byte{0xFF})
	var b wire.Buffer
	b.F64(100)
	b.F64(100)
	f.Add(uint8(wire.OpPNN), b.Bytes())
	// A NaN radius once reached the R-tree's quadratic split (this DB's
	// next insert splits a leaf) and panicked the server.
	var nanIns wire.Buffer
	nanIns.I32(200)
	nanIns.F64(1000)
	nanIns.F64(1000)
	nanIns.F64(math.NaN())
	nanIns.U16(0)
	f.Add(uint8(wire.OpInsert), nanIns.Bytes())

	cfg := datagen.Config{N: 200, Side: 2000, Diameter: 30, Seed: 77}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(db, nil)
	f.Fuzz(func(t *testing.T, op uint8, payload []byte) {
		if op == wire.OpDelete || op == wire.OpBatchDelete {
			// FuzzDeletePayload owns the delete path.
			return
		}
		_, _ = srv.dispatch(op, payload)
		if op != wire.OpInsert {
			return
		}
		if _, err := srv.dispatch(wire.OpPNN, pnnPayload(1000, 1000)); err != nil {
			t.Fatalf("PNN broken after insert fuzz input: %v", err)
		}
	})
}

// FuzzDeletePayload throws corrupted delete and batch-delete payloads
// at the dispatch path. Whatever the bytes: no panic, and a response
// that is either an in-band error or a successful deletion of live
// objects. The shared DB shrinks as valid ids land — deletes of dead
// ids must then fail in-band rather than corrupt anything, and queries
// must keep working between executions.
func FuzzDeletePayload(f *testing.F) {
	var one wire.Buffer
	one.I32(2)
	f.Add(uint8(0), one.Bytes())

	var batch wire.Buffer
	batch.U32(2)
	batch.I32(3)
	batch.I32(4)
	f.Add(uint8(1), batch.Bytes())

	// Hostile count with nothing behind it; truncated id; trailing junk.
	var hostile wire.Buffer
	hostile.U32(1 << 30)
	f.Add(uint8(1), hostile.Bytes())
	f.Add(uint8(0), []byte{7})
	f.Add(uint8(0), []byte{1, 0, 0, 0, 0xEE})
	f.Add(uint8(1), []byte{})

	cfg := datagen.Config{N: 20, Side: 2000, Diameter: 30, Seed: 11}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(db, nil)
	ops := []byte{wire.OpDelete, wire.OpBatchDelete}
	f.Fuzz(func(t *testing.T, opSel uint8, payload []byte) {
		op := ops[int(opSel)%len(ops)]
		_, _ = srv.dispatch(op, payload)
		// The DB must stay internally consistent: a PNN at the domain
		// center either answers or reports a clean error, never panics.
		if _, err := srv.dispatch(wire.OpPNN, pnnPayload(1000, 1000)); err != nil {
			t.Fatalf("PNN broken after delete fuzz input: %v", err)
		}
	})
}

// FuzzSubscribePayload throws corrupted subscribe, move and unsubscribe
// payloads at the subscription engine. Each execution gets its own
// connection state with one healthy session seeded, so the fuzz input
// can hit both the unknown-id and live-session paths. Whatever the
// bytes: no panic, no session leak, the dispatcher keeps answering
// queries, and a malformed MOVE only reports the poison error (the
// decode loop closes the conn; the handler itself must stay total).
func FuzzSubscribePayload(f *testing.F) {
	var sub wire.Buffer
	sub.F64(1000)
	sub.F64(1000)
	f.Add(uint8(0), sub.Bytes())

	var move wire.Buffer
	move.U64(1)
	move.F64(999)
	move.F64(999)
	f.Add(uint8(1), move.Bytes())

	var unsub wire.Buffer
	unsub.U64(1)
	f.Add(uint8(2), unsub.Bytes())

	// Truncations, trailing junk, hostile ids.
	f.Add(uint8(0), []byte{1, 2, 3})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(1), append(move.Bytes(), 0xEE))
	f.Add(uint8(2), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	srv := New(fuzzDB(), nil)
	f.Fuzz(func(t *testing.T, opSel uint8, payload []byte) {
		server, client := net.Pipe()
		defer server.Close()
		defer client.Close()
		go func() { // drain pushes; net.Pipe is unbuffered
			buf := make([]byte, 4096)
			for {
				if _, err := client.Read(buf); err != nil {
					return
				}
			}
		}()
		cs := &connState{s: srv, conn: server, subs: make(map[uint64]*session)}

		// Seed one live, registered session.
		var seed wire.Buffer
		seed.F64(1000)
		seed.F64(1000)
		sl := &slot{}
		if _, err := srv.handleSubscribe(cs, sl, seed.Bytes()); err != nil {
			t.Fatal(err)
		}
		sl.written()

		switch opSel % 3 {
		case 0:
			sl2 := &slot{}
			if _, err := srv.dispatchConn(cs, sl2, wire.OpSubscribe, payload); err == nil && sl2.written != nil {
				sl2.written()
			}
		case 1:
			_ = srv.handleMove(cs, payload)
		case 2:
			_, _ = srv.dispatchConn(cs, &slot{}, wire.OpUnsubscribe, payload)
		}

		// The engine must stay serviceable whatever just happened.
		if _, err := srv.dispatch(wire.OpPNN, pnnPayload(1000, 1000)); err != nil {
			t.Fatalf("PNN broken after subscription fuzz input: %v", err)
		}
		srv.dropConnSessions(cs)
		if n := srv.Subscriptions(); n != 0 {
			t.Fatalf("%d sessions leaked past dropConnSessions", n)
		}
	})
}

// FuzzAnswerDelta throws corrupted push frames at the client's delta
// decoder. Whatever the bytes: no panic, a clean error for anything
// malformed (the read loop then poisons the connection), an applied
// delta otherwise — and the reconstructed answer set stays sorted.
func FuzzAnswerDelta(f *testing.F) {
	var ok wire.Buffer
	ok.U64(1) // sub id
	ok.U64(1) // seq
	ok.U8(0)
	ok.F64(10)
	ok.F64(10)
	ok.F64(2.5)
	ok.U32(2)
	ok.I32(4)
	ok.I32(9)
	ok.U32(1)
	ok.I32(2)
	f.Add(ok.Bytes())

	var fail wire.Buffer
	fail.U64(1)
	fail.U64(1)
	fail.U8(1)
	fail.Str("session dropped")
	f.Add(fail.Bytes())

	var hostile wire.Buffer
	hostile.U64(1)
	hostile.U64(1)
	hostile.U8(0)
	hostile.F64(0)
	hostile.F64(0)
	hostile.F64(0)
	hostile.U32(1 << 30) // id count far past the payload
	f.Add(hostile.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(append(ok.Bytes(), 0xAB)) // trailing junk

	f.Fuzz(func(t *testing.T, payload []byte) {
		c := &Client{subs: map[uint64]*Subscription{}}
		sub := &Subscription{c: c, id: 1, ids: []int32{2, 7}}
		c.subs[1] = sub
		_ = c.handlePush(payload)
		ids := sub.AnswerIDs()
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("answer set unsorted after push: %v", ids)
			}
		}
	})
}

func pnnPayload(x, y float64) []byte {
	var b wire.Buffer
	b.F64(x)
	b.F64(y)
	return b.Bytes()
}

// TestMalformedBatchPoisonsOnlyPayload: a batch frame whose payload is
// garbage (but whose framing is intact) yields an in-band error and the
// connection survives; a frame with broken framing kills only that
// connection while others continue answering batches.
func TestMalformedBatchPoisonsOnlyPayload(t *testing.T) {
	cli, srv := startServer(t, 20)

	// Garbage payload, valid frame → in-band error, connection usable.
	if _, err := cli.roundTrip(wire.OpBatchPNN, []byte{9, 9, 9}); err == nil {
		t.Fatal("garbage batch payload accepted")
	}
	if _, err := cli.BatchPNN([]uvdiagram.Point{uvdiagram.Pt(100, 100)}); err != nil {
		t.Fatalf("connection unusable after in-band batch error: %v", err)
	}

	// Broken framing on a second connection → that connection dies...
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F, wire.OpBatchPNN, 1, 2}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 8)); err == nil {
		t.Fatal("server answered a frame with an oversized length prefix")
	}
	// ...while the healthy connection keeps serving batches.
	if _, err := cli.BatchPNN([]uvdiagram.Point{uvdiagram.Pt(500, 700)}); err != nil {
		t.Fatalf("healthy connection disturbed: %v", err)
	}
}
