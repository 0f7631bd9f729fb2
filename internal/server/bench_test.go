package server

import (
	"net"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// benchServer builds a DB of n objects and serves it over loopback TCP.
func benchServer(b *testing.B, n int) (*Client, []uvdiagram.Point) {
	b.Helper()
	cfg := datagen.Config{N: n, Side: 2000, Diameter: 30, Seed: 77}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
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
	cli, err := Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		cli.Close()
		srv.Close()
		<-done
		srv.Wait()
	})
	qs := make([]uvdiagram.Point, 1024)
	for i := range qs {
		qs[i] = uvdiagram.Pt(float64(37+i*53%1900), float64(59+i*97%1900))
	}
	return cli, qs
}

const (
	benchObjects = 400
	benchK       = 4
)

// The NN benchmarks ship a possible-k-NN workload (k-nearest-neighbor
// retrieval without the probability integration) — the wire-bound query
// where the serving model dominates the cost. BenchmarkBatchNN versus
// BenchmarkSingleNN is the batch engine's headline number.

// BenchmarkSingleNN is the baseline: one blocking round trip per query,
// exactly one request in flight (the pre-batch serving model).
func BenchmarkSingleNN(b *testing.B) {
	cli, qs := benchServer(b, benchObjects)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.PossibleKNN(qs[i%len(qs)], benchK); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedNN streams the same queries with a 64-deep
// in-flight window on one connection.
func BenchmarkPipelinedNN(b *testing.B) {
	cli, qs := benchServer(b, benchObjects)
	b.ResetTimer()
	const window = 64
	done := make(chan *Call, window)
	inFlight := 0
	drain := func() {
		if _, err := PossibleKNNIDs(<-done); err != nil {
			b.Fatal(err)
		}
		inFlight--
	}
	for i := 0; i < b.N; i++ {
		for inFlight >= window {
			drain()
		}
		cli.GoPossibleKNN(qs[i%len(qs)], benchK, done)
		inFlight++
	}
	for inFlight > 0 {
		drain()
	}
}

// BenchmarkBatchNN ships the queries as batch frames of up to 1024
// points, answered by the server's worker-pool fan-out.
func BenchmarkBatchNN(b *testing.B) {
	cli, qs := benchServer(b, benchObjects)
	b.ResetTimer()
	for off := 0; off < b.N; off += len(qs) {
		end := off + len(qs)
		if end > b.N {
			end = b.N
		}
		if _, err := cli.BatchPossibleKNN(qs[:end-off], benchK); err != nil {
			b.Fatal(err)
		}
	}
}

// The PNN benchmarks run the paper's probabilistic NN query, whose
// numerical integration dominates the round trip; they bound what
// pipelining can buy for compute-bound traffic on one core.

// BenchmarkSinglePNN is one blocking PNN round trip per query.
func BenchmarkSinglePNN(b *testing.B) {
	cli, qs := benchServer(b, benchObjects)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.PNN(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchPNN ships PNN queries as batch frames.
func BenchmarkBatchPNN(b *testing.B) {
	cli, qs := benchServer(b, benchObjects)
	b.ResetTimer()
	for off := 0; off < b.N; off += len(qs) {
		end := off + len(qs)
		if end > b.N {
			end = b.N
		}
		if _, err := cli.BatchPNN(qs[:end-off]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurn is the dynamic-maintenance workload: a 90/5/5 mix of
// PNN queries, inserts and deletes over one pipelined connection —
// every write is a pipeline barrier, and every delete re-derives only
// the victim's cr-dependents. The per-op number is the blended cost of
// serving under churn.
func BenchmarkChurn(b *testing.B) {
	cli, qs := benchServer(b, benchObjects)
	next := int32(benchObjects)
	live := make([]int32, benchObjects)
	for i := range live {
		live[i] = int32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch {
		case i%20 == 7: // 5% inserts
			q := qs[i%len(qs)]
			if err := cli.Insert(next, q.X, q.Y, 12, nil); err != nil {
				b.Fatal(err)
			}
			live = append(live, next)
			next++
		case i%20 == 13 && len(live) > benchObjects/2: // 5% deletes
			id := live[i%len(live)]
			live[i%len(live)] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := cli.Delete(id); err != nil {
				b.Fatal(err)
			}
		default:
			if _, err := cli.PNN(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDelete measures the incremental delete alone: each op
// removes one live object over the wire (the population is replenished
// by inserts outside the timed sections).
func BenchmarkDelete(b *testing.B) {
	cli, qs := benchServer(b, benchObjects)
	next := int32(benchObjects)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Keep the population stable: insert one (untimed), delete one
		// (timed). The inserted object is the next victim, so every
		// delete has a real neighborhood to repair.
		b.StopTimer()
		q := qs[i%len(qs)]
		if err := cli.Insert(next, q.X, q.Y, 12, nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := cli.Delete(next); err != nil {
			b.Fatal(err)
		}
		next++
	}
}
