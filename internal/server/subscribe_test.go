package server

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"uvdiagram"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/wire"
)

// startShardedServer is startServer with a spatially sharded database,
// returning the DB too so tests can mirror the server's answers
// locally.
func startShardedServer(t *testing.T, n, shards int) (*Client, *Server, *uvdiagram.DB) {
	t.Helper()
	cfg := datagen.Config{N: n, Side: 2000, Diameter: 30, Seed: 77}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, t.Logf)
	return serveForTest(t, srv), srv, db
}

func dialExtra(t *testing.T, srv *Server) *Client {
	t.Helper()
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// TestSubscribeDeltaMatchesPolling drives one subscription through a
// trajectory with Inserts and Deletes interleaved on a second
// connection, and asserts after EVERY step that the delta-reconstructed
// answer set is bitwise identical to what per-move polling (a direct
// PNN at the current position) returns. The Ping after each step is the
// documented flush barrier.
func TestSubscribeDeltaMatchesPolling(t *testing.T) {
	cli, srv, db := startShardedServer(t, 150, 4)
	mutator := dialExtra(t, srv)

	rng := rand.New(rand.NewSource(41))
	pos := uvdiagram.Pt(1000, 1000)
	sub, err := cli.Subscribe(pos, nil)
	if err != nil {
		t.Fatal(err)
	}

	check := func(step int) {
		t.Helper()
		if err := cli.Ping(); err != nil {
			t.Fatal(err)
		}
		want, _, err := db.PNN(pos)
		if err != nil {
			t.Fatal(err)
		}
		got := sub.AnswerIDs()
		if len(got) != len(want) {
			t.Fatalf("step %d at %v: pushed set %v, polling %v", step, pos, got, want)
		}
		for i := range want {
			if got[i] != want[i].ID {
				t.Fatalf("step %d at %v: pushed set %v, polling %v", step, pos, got, want)
			}
		}
	}
	check(-1)

	var inserted []int32
	for step := 0; step < 120; step++ {
		switch {
		case step%17 == 11: // churn: insert near the query
			id := db.NextID()
			if err := mutator.Insert(id, pos.X+rng.Float64()*40-20, pos.Y+rng.Float64()*40-20, 12, nil); err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted, id)
		case step%17 == 5 && len(inserted) > 0: // churn: delete one back
			if err := mutator.Delete(inserted[0]); err != nil {
				t.Fatal(err)
			}
			inserted = inserted[1:]
		default: // movement: tiny steps with occasional shard-crossing jumps
			if step%13 == 7 {
				pos = uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
			} else {
				pos = uvdiagram.Pt(
					min(max(pos.X+(rng.Float64()*2-1)*3, 0), 2000),
					min(max(pos.Y+(rng.Float64()*2-1)*3, 0), 2000))
			}
			if err := sub.Move(pos); err != nil {
				t.Fatal(err)
			}
		}
		check(step)
	}

	st, err := sub.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Moves == 0 || st.Recomputes == 0 {
		t.Fatalf("implausible session counters: %+v", st)
	}
	if srv.Subscriptions() != 0 {
		t.Fatalf("%d sessions left registered after Close", srv.Subscriptions())
	}
}

// TestSubscriptionLifecycleErrors covers the failure surface: an
// out-of-domain move drops only its session (terminal error push, conn
// survives), unsubscribing a dead session errors in-band, and a
// malformed move frame poisons exactly its own connection.
func TestSubscriptionLifecycleErrors(t *testing.T) {
	cli, srv, _ := startShardedServer(t, 60, 2)

	deltas := make(chan Delta, 4)
	sub, err := cli.Subscribe(uvdiagram.Pt(500, 500), func(d Delta) { deltas <- d })
	if err != nil {
		t.Fatal(err)
	}

	// Out-of-domain move: the server drops the session and pushes a
	// terminal error delta.
	if err := sub.Move(uvdiagram.Pt(-50, -50)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	if sub.Err() == nil {
		t.Fatal("no terminal error after out-of-domain move")
	}
	select {
	case d := <-deltas:
		if d.Err == nil {
			t.Fatalf("callback got a non-error delta: %+v", d)
		}
	default:
		t.Fatal("terminal delta not delivered to the callback")
	}
	if srv.Subscriptions() != 0 {
		t.Fatalf("dropped session still registered: %d", srv.Subscriptions())
	}

	// The connection survives: queries and fresh subscriptions work.
	if _, err := cli.PNN(uvdiagram.Pt(700, 700)); err != nil {
		t.Fatalf("connection dead after session drop: %v", err)
	}
	sub2, err := cli.Subscribe(uvdiagram.Pt(700, 700), nil)
	if err != nil {
		t.Fatalf("cannot re-subscribe after session drop: %v", err)
	}

	// Unsubscribing the DROPPED session reports in-band and leaves the
	// connection healthy.
	if _, err := sub.Close(); err == nil {
		t.Fatal("unsubscribe of a dropped session succeeded")
	}
	if _, err := cli.PNN(uvdiagram.Pt(700, 700)); err != nil {
		t.Fatalf("connection dead after in-band unsubscribe error: %v", err)
	}

	// A further move on the dropped session is silently ignored — the
	// live session keeps working.
	if err := sub.Move(uvdiagram.Pt(600, 600)); err != nil {
		t.Fatal(err)
	}
	if err := sub2.Move(uvdiagram.Pt(710, 710)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	if sub2.Err() != nil {
		t.Fatalf("live session affected by dead-session move: %v", sub2.Err())
	}

	// Malformed move payload: no response slot exists, so it poisons the
	// connection — but ONLY that connection.
	cli2 := dialExtra(t, srv)
	if _, err := cli2.Subscribe(uvdiagram.Pt(300, 300), nil); err != nil {
		t.Fatal(err)
	}
	if err := cli2.send(wire.OpMove, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cli2.Ping() == nil {
		if time.Now().After(deadline) {
			t.Fatal("connection survived a malformed move frame")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := cli.PNN(uvdiagram.Pt(700, 700)); err != nil {
		t.Fatalf("healthy connection poisoned by another conn's bad move: %v", err)
	}
	if srv.Subscriptions() != 1 {
		t.Fatalf("poisoned conn's sessions not torn down: %d live", srv.Subscriptions())
	}
}

// TestSubscriptionRegisterAfterTeardown forces the interleaving that used to leak:
// the subscribe response is on the wire, the client's out-of-domain
// Move fails and unregisters the session on the decode loop, and only
// THEN does the writer goroutine reach register. Registration must be a
// no-op on the closed session — re-inserting it would park it in the
// server-wide table forever, for every churn sweep to touch.
func TestSubscriptionRegisterAfterTeardown(t *testing.T) {
	cfg := datagen.Config{N: 60, Side: 2000, Diameter: 30, Seed: 77}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, t.Logf)
	reached, release := make(chan struct{}), make(chan struct{})
	srv.beforeRegister = func() {
		close(reached)
		<-release
	}
	cli := serveForTest(t, srv)

	deltas := make(chan Delta, 1)
	sub, err := cli.Subscribe(uvdiagram.Pt(500, 500), func(d Delta) { deltas <- d })
	if err != nil {
		t.Fatal(err)
	}
	<-reached // the writer is parked between the response and register
	if err := sub.Move(uvdiagram.Pt(-50, -50)); err != nil {
		t.Fatal(err)
	}
	// The terminal push is written by the decode loop itself, so it
	// arrives while the writer goroutine is still parked.
	select {
	case d := <-deltas:
		if d.Err == nil {
			t.Fatalf("out-of-domain move pushed a non-error delta: %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no terminal delta after out-of-domain move")
	}
	close(release)
	// The Ping response is written after register returned.
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Subscriptions(); n != 0 {
		t.Fatalf("register re-inserted a closed session: %d registered", n)
	}
}

// TestManySubscribersUnderChurn is the acceptance stress: 1000
// concurrent subscribed moving clients across 8 connections, a mutator
// churning inserts and deletes the whole time, race-clean, with every
// final answer set bitwise identical to a direct PNN and a recompute
// rate well below the move rate.
func TestManySubscribersUnderChurn(t *testing.T) {
	const (
		conns   = 8
		perConn = 125
		moves   = 20
		churn   = 10
	)
	cli, srv, db := startShardedServer(t, 500, 4)
	mutator := dialExtra(t, srv)

	clients := make([]*Client, conns)
	clients[0] = cli
	for i := 1; i < conns; i++ {
		clients[i] = dialExtra(t, srv)
	}

	type fleet struct {
		subs []*Subscription
		pos  []uvdiagram.Point
	}
	fleets := make([]fleet, conns)
	for ci := range fleets {
		fleets[ci].subs = make([]*Subscription, perConn)
		fleets[ci].pos = make([]uvdiagram.Point, perConn)
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		for i := 0; i < perConn; i++ {
			fleets[ci].pos[i] = uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
			sub, err := clients[ci].Subscribe(fleets[ci].pos[i], nil)
			if err != nil {
				t.Fatal(err)
			}
			fleets[ci].subs[i] = sub
		}
	}
	// A session registers after its Subscribe response is written; the
	// connection's next response is written after register returned.
	for _, c := range clients {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Subscriptions(); got != conns*perConn {
		t.Fatalf("registered %d sessions, want %d", got, conns*perConn)
	}

	var wg sync.WaitGroup
	errc := make(chan error, conns+1)
	for ci := range fleets {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			fl := fleets[ci]
			rng := rand.New(rand.NewSource(int64(2000 + ci)))
			for k := 0; k < moves; k++ {
				for i := range fl.subs {
					fl.pos[i] = uvdiagram.Pt(
						min(max(fl.pos[i].X+(rng.Float64()*2-1)*0.3, 0), 2000),
						min(max(fl.pos[i].Y+(rng.Float64()*2-1)*0.3, 0), 2000))
					if err := fl.subs[i].Move(fl.pos[i]); err != nil {
						errc <- fmt.Errorf("conn %d move: %w", ci, err)
						return
					}
				}
			}
		}(ci)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9999))
		var ids []int32
		for k := 0; k < churn; k++ {
			if k%2 == 0 {
				id := db.NextID()
				if err := mutator.Insert(id, rng.Float64()*2000, rng.Float64()*2000, 12, nil); err != nil {
					errc <- fmt.Errorf("churn insert: %w", err)
					return
				}
				ids = append(ids, id)
			} else {
				if err := mutator.Delete(ids[len(ids)-1]); err != nil {
					errc <- fmt.Errorf("churn delete: %w", err)
					return
				}
				ids = ids[:len(ids)-1]
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesce: one Ping per connection applies every outstanding delta.
	for _, c := range clients {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}

	// Every reconstructed answer set matches a direct PNN at the final
	// position, bit for bit.
	var totMoves, totRecomputes uint64
	for ci := range fleets {
		fl := fleets[ci]
		for i, sub := range fl.subs {
			if sub.Err() != nil {
				t.Fatalf("conn %d session %d dropped: %v", ci, i, sub.Err())
			}
			want, _, err := db.PNN(fl.pos[i])
			if err != nil {
				t.Fatal(err)
			}
			got := sub.AnswerIDs()
			if len(got) != len(want) {
				t.Fatalf("conn %d session %d at %v: pushed %v, polling %v", ci, i, fl.pos[i], got, want)
			}
			for k := range want {
				if got[k] != want[k].ID {
					t.Fatalf("conn %d session %d at %v: pushed %v, polling %v", ci, i, fl.pos[i], got, want)
				}
			}
			st, err := sub.Close()
			if err != nil {
				t.Fatal(err)
			}
			totMoves += st.Moves
			totRecomputes += st.Recomputes
		}
	}
	if srv.Subscriptions() != 0 {
		t.Fatalf("%d sessions left after teardown", srv.Subscriptions())
	}
	if totMoves != conns*perConn*moves {
		t.Fatalf("server counted %d moves, want %d", totMoves, conns*perConn*moves)
	}
	// Smooth trajectories: the safe circles must absorb most moves even
	// with churn-forced revalidations charged to the same counter.
	if totRecomputes*2 > totMoves {
		t.Fatalf("recompute rate %.1f%% — safe circles absorbing nothing (%d recomputes / %d moves)",
			100*float64(totRecomputes)/float64(totMoves), totRecomputes, totMoves)
	}
	t.Logf("1000 sessions: %d moves, %d recomputes (%.1f%%)",
		totMoves, totRecomputes, 100*float64(totRecomputes)/float64(totMoves))
}

// BenchmarkSubscriptionMove measures the full wire round of one
// fire-and-forget move against a live subscription (safe-circle hits
// and misses mixed), with a flush Ping every 256 moves standing in for
// a real client's read-back cadence.
func BenchmarkSubscriptionMove(b *testing.B) {
	cfg := datagen.Config{N: 2000, Side: 2000, Diameter: 30, Seed: 5}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(db, nil)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis)
	}()
	defer func() {
		srv.Close()
		<-done
		srv.Wait()
	}()
	cli, err := Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	pos := uvdiagram.Pt(1000, 1000)
	sub, err := cli.Subscribe(pos, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos = uvdiagram.Pt(
			min(max(pos.X+(rng.Float64()*2-1)*0.5, 0), 2000),
			min(max(pos.Y+(rng.Float64()*2-1)*0.5, 0), 2000))
		if err := sub.Move(pos); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			if err := cli.Ping(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := cli.Ping(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	st, err := sub.Close()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Recomputes)/float64(st.Moves), "recomputes/move")
	b.ReportMetric(float64(st.Pushes), "pushes")
}
