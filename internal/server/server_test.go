package server

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"uvdiagram"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/wire"
)

// startServer builds a small DB, serves it on a loopback listener and
// returns a connected client. Everything is torn down with t.Cleanup.
func startServer(t *testing.T, n int) (*Client, *Server) {
	t.Helper()
	cfg := datagen.Config{N: n, Side: 2000, Diameter: 30, Seed: 77}
	objs := datagen.Uniform(cfg)
	db, err := uvdiagram.Build(objs, cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, t.Logf)
	return serveForTest(t, srv), srv
}

// serveForTest starts srv on a loopback listener and dials it; both are
// shut down with the test. It returns once Serve has registered the
// listener, so srv.Addr() is set: the kernel accepts a Dial before
// Serve runs at all. (A Ping round trip would order it too, but would
// add a frame to the counts the metrics tests check exactly.)
func serveForTest(t *testing.T, srv *Server) *Client {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis)
	}()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	cli, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		<-done
		srv.Wait()
	})
	return cli
}

// TestServeAfterClose: Serve on a closed server must close the listener
// and return net.ErrClosed instead of blocking in Accept, which a Close
// racing ahead of Serve's listener registration used to leave it in.
func TestServeAfterClose(t *testing.T) {
	cfg := datagen.Config{N: 20, Side: 2000, Diameter: 30, Seed: 77}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, t.Logf)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve after Close = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Close did not return within 5 s")
	}
	if _, err := lis.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener still open after Serve returned: Accept = %v", err)
	}
}

func TestPingAndStats(t *testing.T) {
	cli, srv := startServer(t, 50)
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	st, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 50 {
		t.Fatalf("objects = %d", st.Objects)
	}
	if st.Domain != srv.DB().Domain() {
		t.Fatalf("domain = %v, want %v", st.Domain, srv.DB().Domain())
	}
	want := srv.DB().IndexStats()
	if st.Leaves != want.Leaves || st.Entries != want.Entries {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestShardedStatsOverWire serves a spatially sharded database and
// checks the Stats opcode carries the shard count and per-shard slack,
// that queries route correctly over the wire, and that a delete's slack
// shows up in the shard breakdown.
func TestShardedStatsOverWire(t *testing.T) {
	cfg := datagen.Config{N: 80, Side: 2000, Diameter: 30, Seed: 77}
	objs := datagen.Uniform(cfg)
	db, err := uvdiagram.Build(objs, cfg.Domain(), &uvdiagram.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	cli := serveForTest(t, New(db, t.Logf))

	st, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || len(st.ShardSlack) != 4 {
		t.Fatalf("stats shards = %d (%d slacks), want 4", st.Shards, len(st.ShardSlack))
	}
	for i, s := range st.ShardSlack {
		if s != 0 {
			t.Fatalf("fresh shard %d has slack %d", i, s)
		}
	}
	// Aggregated shape fields come from all shards.
	if want := db.IndexStats(); st.Leaves != want.Leaves || st.Entries != want.Entries {
		t.Fatalf("stats %+v, want aggregate %+v", st, want)
	}
	// The layout block: grid dimensions, cut coordinates and per-shard
	// live counts (the load-balance signal).
	if st.GridX != 2 || st.GridY != 2 {
		t.Fatalf("stats grid %dx%d, want 2x2", st.GridX, st.GridY)
	}
	xs, ys := db.ShardCuts()
	if fmt.Sprint(st.CutsX) != fmt.Sprint(xs) || fmt.Sprint(st.CutsY) != fmt.Sprint(ys) {
		t.Fatalf("stats cuts %v/%v, engine %v/%v", st.CutsX, st.CutsY, xs, ys)
	}
	liveTotal := 0
	for _, v := range st.ShardLive {
		liveTotal += v
	}
	if liveTotal != db.Len() {
		t.Fatalf("per-shard live counts sum to %d, live population is %d", liveTotal, db.Len())
	}
	if f := st.LoadImbalance(); f < 1 {
		t.Fatalf("load imbalance %v < 1", f)
	}

	// Queries route through the wire identically to local calls,
	// including points on the 2×2 cut lines.
	for _, q := range []uvdiagram.Point{
		uvdiagram.Pt(1000, 1000), uvdiagram.Pt(1000, 250), uvdiagram.Pt(37, 1999),
	} {
		got, err := cli.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("q=%v: wire %v vs local %v", q, got, want)
		}
	}

	// A delete accrues slack in at least one shard and the wire reports
	// the new breakdown.
	if err := cli.Delete(5); err != nil {
		t.Fatal(err)
	}
	st, err = cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range st.ShardSlack {
		total += s
	}
	if total == 0 {
		t.Fatal("delete left zero slack across every shard")
	}
	if total != db.Slack() {
		t.Fatalf("wire slack %d, engine slack %d", total, db.Slack())
	}
}

func TestPNNOverWireMatchesLocal(t *testing.T) {
	cli, srv := startServer(t, 80)
	for _, q := range []uvdiagram.Point{
		uvdiagram.Pt(1000, 1000), uvdiagram.Pt(150, 1800), uvdiagram.Pt(1930, 430),
	} {
		got, err := cli.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := srv.DB().PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("q=%v: wire %v vs local %v", q, got, want)
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
				t.Fatalf("q=%v answer %d: wire %v vs local %v", q, i, got[i], want[i])
			}
		}
	}
}

func TestAllOpsOverWire(t *testing.T) {
	cli, srv := startServer(t, 60)
	q := uvdiagram.Pt(1000, 1000)

	topk, err := cli.TopKPNN(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(topk) > 2 {
		t.Fatalf("top-2 returned %d answers", len(topk))
	}

	ids, err := cli.PossibleKNN(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, err := srv.DB().PossibleKNN(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(wantIDs) {
		t.Fatalf("possible-4-NN: wire %v vs local %v", ids, wantIDs)
	}

	rnn, err := cli.RNN(q)
	if err != nil {
		t.Fatal(err)
	}
	wantRNN, _ := srv.DB().RNN(q)
	if len(rnn) != len(wantRNN) {
		t.Fatalf("RNN: wire %v vs local %v", rnn, wantRNN)
	}

	area, err := cli.CellArea(5)
	if err != nil {
		t.Fatal(err)
	}
	wantArea, err := srv.DB().CellArea(5)
	if err != nil {
		t.Fatal(err)
	}
	if area != wantArea {
		t.Fatalf("cell area: wire %v vs local %v", area, wantArea)
	}

	parts, err := cli.Partitions(uvdiagram.Rect{Min: uvdiagram.Pt(500, 500), Max: uvdiagram.Pt(1500, 1500)})
	if err != nil {
		t.Fatal(err)
	}
	wantParts := srv.DB().Partitions(uvdiagram.Rect{Min: uvdiagram.Pt(500, 500), Max: uvdiagram.Pt(1500, 1500)})
	if len(parts) != len(wantParts) {
		t.Fatalf("partitions: wire %d vs local %d", len(parts), len(wantParts))
	}
}

func TestInsertOverWire(t *testing.T) {
	cli, srv := startServer(t, 30)
	next := int32(srv.DB().Len())
	if err := cli.Insert(next, 777, 888, 15, nil); err != nil {
		t.Fatal(err)
	}
	if srv.DB().Len() != int(next)+1 {
		t.Fatalf("server DB has %d objects, want %d", srv.DB().Len(), next+1)
	}
	// Wrong (non-dense) ID must be rejected in-band; connection stays
	// usable.
	if err := cli.Insert(999, 1, 1, 5, nil); err == nil {
		t.Fatal("non-dense insert accepted")
	}
	if err := cli.Ping(); err != nil {
		t.Fatalf("connection unusable after in-band error: %v", err)
	}
}

// TestInvalidObjectRejected: a region that is not a finite circle — a
// NaN, negative or infinite radius, or a NaN center — is refused by
// Build, by DB.Insert and by OpInsert alike, with an error matching
// uvdiagram.ErrInvalidObject (in-band over the wire). A NaN radius once
// reached the R-tree's quadratic split and panicked the server; after
// every rejected OpInsert the same connection must still answer a PNN,
// and nothing may have been stored.
func TestInvalidObjectRejected(t *testing.T) {
	cli, srv := startServer(t, 200) // its R-tree root splits on the next insert
	db := srv.DB()
	cfg := datagen.Config{N: 40, Side: 2000, Diameter: 30, Seed: 5}
	nan := math.NaN()
	for _, tc := range []struct {
		name      string
		x, y, rad float64
	}{
		{"nan-radius", 1000, 1000, nan},
		{"negative-radius", 1000, 1000, -1},
		{"inf-radius", 1000, 1000, math.Inf(1)},
		{"nan-center", nan, 1000, 10},
	} {
		t.Run(tc.name+"/Build", func(t *testing.T) {
			objs := datagen.Uniform(cfg)
			objs[7] = uvdiagram.NewObject(7, tc.x, tc.y, tc.rad, nil)
			if _, err := uvdiagram.Build(objs, cfg.Domain(), nil); !errors.Is(err, uvdiagram.ErrInvalidObject) {
				t.Fatalf("Build: err = %v, want ErrInvalidObject", err)
			}
		})
		t.Run(tc.name+"/Insert", func(t *testing.T) {
			next, n := db.NextID(), db.Len()
			if err := db.Insert(uvdiagram.NewObject(next, tc.x, tc.y, tc.rad, nil)); !errors.Is(err, uvdiagram.ErrInvalidObject) {
				t.Fatalf("Insert: err = %v, want ErrInvalidObject", err)
			}
			if db.NextID() != next || db.Len() != n {
				t.Fatalf("rejected Insert changed the DB: next id %d → %d, len %d → %d", next, db.NextID(), n, db.Len())
			}
		})
		t.Run(tc.name+"/OpInsert", func(t *testing.T) {
			next, n := db.NextID(), db.Len()
			err := cli.Insert(next, tc.x, tc.y, tc.rad, nil)
			if err == nil || !strings.Contains(err.Error(), uvdiagram.ErrInvalidObject.Error()) {
				t.Fatalf("OpInsert: err = %v, want an in-band %q", err, uvdiagram.ErrInvalidObject)
			}
			if db.NextID() != next || db.Len() != n {
				t.Fatalf("rejected OpInsert changed the DB: next id %d → %d, len %d → %d", next, db.NextID(), n, db.Len())
			}
			if ans, err := cli.PNN(uvdiagram.Pt(1000, 1000)); err != nil || len(ans) == 0 {
				t.Fatalf("PNN on the same connection after a rejected insert: %v answers, err %v", len(ans), err)
			}
		})
	}
}

func TestServerErrorsInBand(t *testing.T) {
	cli, _ := startServer(t, 20)
	// Query outside the domain: application error, not a dead socket.
	if _, err := cli.PNN(uvdiagram.Pt(-50, -50)); err == nil {
		t.Fatal("out-of-domain query accepted")
	} else if !strings.Contains(err.Error(), "server:") {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := cli.Ping(); err != nil {
		t.Fatalf("connection unusable after in-band error: %v", err)
	}
}

// TestPossibleKNNNonFiniteOverWire: a NaN or infinite query point fails
// OpPossibleKNN and OpBatchKNN in-band with the out-of-domain error; the
// connection survives, and a finite point outside the domain is still
// answered.
func TestPossibleKNNNonFiniteOverWire(t *testing.T) {
	cli, srv := startServer(t, 500)
	for _, q := range []uvdiagram.Point{uvdiagram.Pt(math.NaN(), 5), uvdiagram.Pt(math.Inf(1), 5), uvdiagram.Pt(5, math.Inf(-1))} {
		if ids, err := cli.PossibleKNN(q, 3); err == nil || !strings.Contains(err.Error(), "outside domain") {
			t.Fatalf("PossibleKNN(%v): %d ids, err %v", q, len(ids), err)
		}
		qs := []uvdiagram.Point{uvdiagram.Pt(100, 100), q}
		if lists, err := cli.BatchPossibleKNN(qs, 3); err == nil || !strings.Contains(err.Error(), "query 1") || !strings.Contains(err.Error(), "outside domain") {
			t.Fatalf("BatchPossibleKNN with %v: %d lists, err %v", q, len(lists), err)
		}
	}
	outside := uvdiagram.Pt(-50, -50)
	got, err := cli.PossibleKNN(outside, 3)
	if err != nil {
		t.Fatalf("PossibleKNN(%v) outside the domain: %v", outside, err)
	}
	want, err := srv.DB().PossibleKNN(outside, 3)
	if err != nil || len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("PossibleKNN(%v) over the wire %v, local %v (%v)", outside, got, want, err)
	}
}

func TestUnknownOpcode(t *testing.T) {
	cli, _ := startServer(t, 10)
	if _, err := cli.roundTrip(0xEE, nil); err == nil {
		t.Fatal("unknown opcode accepted")
	}
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedPayloadRejected(t *testing.T) {
	cli, srv := startServer(t, 10)
	// PNN with a half payload: in-band error.
	if _, err := cli.roundTrip(wire.OpPNN, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated payload accepted")
	}

	// A well-formed payload with one stray byte behind it is rejected
	// in-band too, and the connection answers the next request.
	var point, pointK, id, rect, insert wire.Buffer
	point.F64(500)
	point.F64(500)
	pointK.F64(500)
	pointK.F64(500)
	pointK.U32(2)
	id.I32(0)
	for _, v := range []float64{0, 0, 1000, 1000} {
		rect.F64(v)
	}
	insert.I32(srv.DB().NextID())
	insert.F64(700)
	insert.F64(700)
	insert.F64(10)
	insert.U16(0)
	for _, c := range []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"pnn", wire.OpPNN, point.Bytes()},
		{"top-k", wire.OpTopK, pointK.Bytes()},
		{"possible-k-NN", wire.OpPossibleKNN, pointK.Bytes()},
		{"rnn", wire.OpRNN, point.Bytes()},
		{"cell-area", wire.OpCellArea, id.Bytes()},
		{"partitions", wire.OpPartitions, rect.Bytes()},
		{"insert", wire.OpInsert, insert.Bytes()},
	} {
		payload := append(append([]byte(nil), c.payload...), 0x01)
		if _, err := cli.roundTrip(c.op, payload); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
			t.Errorf("%s with a trailing byte: err = %v, want an in-band trailing-bytes error", c.name, err)
		}
		if _, err := cli.PNN(uvdiagram.Pt(500, 500)); err != nil {
			t.Fatalf("connection unusable after a %s with a trailing byte: %v", c.name, err)
		}
	}
	if srv.DB().Len() != 10 {
		t.Fatalf("rejected insert mutated the DB: %d objects", srv.DB().Len())
	}
}

func TestGarbageFramePoisonsConnection(t *testing.T) {
	cli, srv := startServer(t, 10)
	// Raw connection sending garbage: the server must close it (framing
	// errors poison the stream) without disturbing other clients.
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server answered a garbage frame instead of closing")
	}
	// The well-behaved client is unaffected.
	if err := cli.Ping(); err != nil {
		t.Fatalf("healthy connection disturbed: %v", err)
	}
}

func TestCorruptChecksumPoisonsConnection(t *testing.T) {
	_, srv := startServer(t, 10)
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A structurally valid frame whose checksum does not match.
	frame := []byte{
		9, 0, 0, 0, // length = 1 opcode + 4 payload + 4 crc
		0x03,       // OpPNN
		1, 2, 3, 4, // payload
		0, 0, 0, 0, // wrong CRC
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 16)); err == nil {
		t.Fatal("server answered a corrupt frame instead of closing")
	}
}

func TestConcurrentClientsAndInserts(t *testing.T) {
	cli, srv := startServer(t, 60)
	_ = cli
	addr := srv.Addr().String()

	const workers = 8
	const queriesPerWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < queriesPerWorker; i++ {
				q := uvdiagram.Pt(float64(100+w*37+i*13%1800), float64(100+i*71%1800))
				if _, err := c.PNN(q); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// One writer inserting concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		for i := 0; i < 10; i++ {
			if err := c.Insert(int32(60+i), float64(200+i*50), float64(300+i*40), 12, nil); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.DB().Len() != 70 {
		t.Fatalf("server DB has %d objects, want 70", srv.DB().Len())
	}
}
