package server

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/wire"
)

// TestDeleteOverWire drives the delete opcodes end to end: visibility,
// in-band failures, and the read-your-deletes pipeline barrier.
func TestDeleteOverWire(t *testing.T) {
	cli, srv := startServer(t, 40)

	victim := int32(3)
	center, err := srv.DB().Object(victim)
	if err != nil {
		t.Fatal(err)
	}
	q := center.Region.C

	if err := cli.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if srv.DB().Alive(victim) {
		t.Fatal("server DB still lists the victim as alive")
	}
	if srv.DB().Len() != 39 {
		t.Fatalf("live count %d, want 39", srv.DB().Len())
	}
	answers, err := cli.PNN(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if a.ID == victim {
			t.Fatalf("deleted object still answered over the wire: %v", answers)
		}
	}

	// Double delete and unknown id: in-band errors, connection healthy.
	if err := cli.Delete(victim); err == nil {
		t.Fatal("double delete accepted")
	} else if !strings.Contains(err.Error(), "server:") {
		t.Fatalf("unexpected error shape: %v", err)
	}
	if err := cli.Delete(9999); err == nil {
		t.Fatal("unknown delete accepted")
	}
	if err := cli.Ping(); err != nil {
		t.Fatalf("connection unusable after in-band delete error: %v", err)
	}

	// Batch delete: all-or-nothing, echoed count checked by the client.
	if err := cli.BatchDelete([]int32{5, victim}); err == nil {
		t.Fatal("batch with dead id accepted")
	}
	if !srv.DB().Alive(5) {
		t.Fatal("failed batch delete was not all-or-nothing")
	}
	if err := cli.BatchDelete([]int32{5, 7, 11}); err != nil {
		t.Fatal(err)
	}
	if srv.DB().Len() != 36 {
		t.Fatalf("live count %d after batch delete, want 36", srv.DB().Len())
	}

	// Stats must expose both the live count and the next insert id —
	// after deletions they differ, and inserts key off NextID.
	st, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 36 {
		t.Fatalf("stats objects = %d, want live count 36", st.Objects)
	}
	if st.NextID != 40 {
		t.Fatalf("stats next id = %d, want dense end 40", st.NextID)
	}
	if err := cli.Insert(st.NextID, 500, 500, 10, nil); err != nil {
		t.Fatalf("insert at advertised NextID failed: %v", err)
	}
}

// TestPipelinedReadYourDeletes: a Delete pipelined between queries on
// one connection is a barrier — queries queued after it must not see
// the victim.
func TestPipelinedReadYourDeletes(t *testing.T) {
	cli, srv := startServer(t, 30)
	victim := int32(12)
	o, err := srv.DB().Object(victim)
	if err != nil {
		t.Fatal(err)
	}
	q := o.Region.C

	var pre, post [6]*Call
	for i := range pre {
		pre[i] = cli.GoPNN(q, nil)
	}
	del := cli.GoDelete(victim, nil)
	for i := range post {
		post[i] = cli.GoPNN(q, nil)
	}

	seen := func(calls []*Call) bool {
		t.Helper()
		found := false
		for _, call := range calls {
			<-call.Done
			answers, err := PNNAnswers(call)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range answers {
				found = found || a.ID == victim
			}
		}
		return found
	}
	if !seen(pre[:]) {
		t.Fatal("pre-delete queries never saw the victim at its own center")
	}
	<-del.Done
	if del.Err != nil {
		t.Fatal(del.Err)
	}
	if seen(post[:]) {
		t.Fatal("post-delete pipelined query still saw the victim")
	}
}

// TestMalformedDeleteIsolation: truncated or trailing-garbage delete
// payloads fail only their own call; the connection keeps serving.
func TestMalformedDeleteIsolation(t *testing.T) {
	cli, srv := startServer(t, 20)
	before := srv.DB().Len()

	if _, err := cli.roundTrip(wire.OpDelete, []byte{1, 2}); err == nil {
		t.Fatal("truncated delete accepted")
	}
	if _, err := cli.roundTrip(wire.OpDelete, []byte{0, 0, 0, 0, 0xFF}); err == nil {
		t.Fatal("delete with trailing bytes accepted")
	}
	var hostile wire.Buffer
	hostile.U32(1 << 30) // batch count with no ids behind it
	if _, err := cli.roundTrip(wire.OpBatchDelete, hostile.Bytes()); err == nil {
		t.Fatal("hostile batch delete count accepted")
	}
	if _, err := cli.roundTrip(wire.OpBatchDelete, []byte{}); err == nil {
		t.Fatal("empty batch delete payload accepted")
	}

	if srv.DB().Len() != before {
		t.Fatalf("malformed deletes mutated the DB: %d -> %d", before, srv.DB().Len())
	}
	if err := cli.Ping(); err != nil {
		t.Fatalf("connection unusable after malformed deletes: %v", err)
	}
	// And a well-formed delete still works on the same connection.
	if err := cli.Delete(0); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildDuringQueries is the regression guard for an old data
// race: a rebuild used to overwrite the index and its build statistics
// in place while server goroutines read them. With the one atomic
// database-state swap this must be clean under -race and queries must
// keep answering correctly throughout.
func TestRebuildDuringQueries(t *testing.T) {
	_, srv := startServer(t, 60)
	addr := srv.Addr().String()

	const readers = 4
	const rounds = 30
	var wg sync.WaitGroup
	var failed atomic.Bool
	stop := make(chan struct{})

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				failed.Store(true)
				t.Errorf("reader %d: %v", w, err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := uvdiagram.Pt(float64(100+(w*131+i*17)%1800), float64(100+(i*41)%1800))
				if _, err := c.PNN(q); err != nil {
					failed.Store(true)
					t.Errorf("reader %d query %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < rounds; r++ {
		if err := srv.DB().Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}
}

// TestChurnStress is the full dynamic workload under the race detector:
// concurrent pipelined and batch queries, one writer interleaving
// inserts and deletes over the wire, and a Compact epoch swap
// mid-flight.
func TestChurnStress(t *testing.T) {
	_, srv := startServer(t, 50)
	addr := srv.Addr().String()

	const (
		readers         = 5
		roundsPerReader = 10
		writeOps        = 24
		batchPointsPer  = 12
	)
	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		failed.Store(true)
		t.Errorf(format, args...)
	}

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				fail("reader %d: %v", w, err)
				return
			}
			defer c.Close()
			pt := func(i, j int) uvdiagram.Point {
				return uvdiagram.Pt(float64(100+(w*211+i*37+j*97)%1800), float64(100+(i*71+j*13)%1800))
			}
			for i := 0; i < roundsPerReader && !failed.Load(); i++ {
				switch i % 3 {
				case 0:
					qs := make([]uvdiagram.Point, batchPointsPer)
					for j := range qs {
						qs[j] = pt(i, j)
					}
					if _, err := c.BatchPNN(qs); err != nil {
						fail("reader %d round %d: BatchPNN: %v", w, i, err)
						return
					}
				case 1:
					if _, err := c.PossibleKNN(pt(i, 0), 3); err != nil {
						fail("reader %d round %d: PossibleKNN: %v", w, i, err)
						return
					}
					if _, err := c.RNN(pt(i, 1)); err != nil {
						fail("reader %d round %d: RNN: %v", w, i, err)
						return
					}
				default:
					calls := make([]*Call, 8)
					for j := range calls {
						calls[j] = c.GoPNN(pt(i, j), nil)
					}
					for j, call := range calls {
						<-call.Done
						if _, err := PNNAnswers(call); err != nil {
							fail("reader %d round %d call %d: %v", w, i, j, err)
							return
						}
					}
				}
			}
		}(w)
	}

	// One writer alternating inserts and deletes (single connection
	// keeps the dense-ID sequencing trivial).
	wg.Add(1)
	var inserted, deleted atomic.Int64
	go func() {
		defer wg.Done()
		c, err := Dial(addr)
		if err != nil {
			fail("writer: %v", err)
			return
		}
		defer c.Close()
		next := int32(50)
		for i := 0; i < writeOps; i++ {
			if i%2 == 0 {
				if err := c.Insert(next, float64(150+i*140%1700), float64(250+i*120%1600), 12, nil); err != nil {
					fail("writer insert %d: %v", next, err)
					return
				}
				next++
				inserted.Add(1)
			} else {
				// Delete one of the seed objects; each id used once.
				if err := c.Delete(int32(i / 2)); err != nil {
					fail("writer delete %d: %v", i/2, err)
					return
				}
				deleted.Add(1)
			}
		}
	}()

	// A compaction mid-flight, directly on the DB (the epoch swap runs
	// without the server lock).
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := srv.DB().Compact(context.Background()); err != nil {
			fail("compact: %v", err)
		}
	}()

	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}
	want := 50 + int(inserted.Load()) - int(deleted.Load())
	if got := srv.DB().Len(); got != want {
		t.Fatalf("server DB has %d live objects, want %d", got, want)
	}
	// The post-churn database still answers consistently with a fresh
	// rebuild of itself.
	q := uvdiagram.Pt(1000, 1000)
	before, _, err := srv.DB().PNN(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.DB().Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, _, err := srv.DB().PNN(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("rebuild changed post-churn answers: %v vs %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rebuild changed post-churn answers: %v vs %v", before, after)
		}
	}
}
