package uvdiagram_test

// Benchmarks for the future-work extensions implemented beyond the
// paper's evaluation: reverse nearest-neighbor queries, order-k
// indexes and possible-k-NN, continuous (moving) PNN with safe
// regions, the 3D UV-diagram, and the network protocol stack.

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/rnn"
	"uvdiagram/internal/server"
	"uvdiagram/internal/wire"
)

// ---------------------------------------------------------------------
// Reverse nearest-neighbor queries.

func Benchmark_Ext_RNN(b *testing.B) {
	for _, n := range []int{1000, 4000, 8000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			f := getFixture(b, n, 40)
			objs := f.db.Store().All()
			var cands, answers int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := f.queries[i%len(f.queries)]
				_, st := rnn.PossibleRNN(objs, f.db.RTree(), q, nil)
				cands += st.Candidates
				answers += st.Answers
			}
			b.ReportMetric(float64(cands)/float64(b.N), "cands/query")
			b.ReportMetric(float64(answers)/float64(b.N), "answers/query")
		})
	}
}

func Benchmark_Ext_RNN_Probabilities(b *testing.B) {
	f := getFixture(b, 4000, 40)
	objs := f.db.Store().All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		rnn.Query(objs, f.db.RTree(), q, nil)
	}
}

// ---------------------------------------------------------------------
// Order-k index: build cost and possible-k-NN retrieval, against the
// R-tree branch-and-prune path the paper would fall back to.

func Benchmark_Ext_OrderK_Build(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			f := getFixture(b, 1000, 40)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.db.NewOrderKIndex(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func Benchmark_Ext_PossibleKNN_OrderKIndex(b *testing.B) {
	f := getFixture(b, 4000, 40)
	ix, err := f.db.NewOrderKIndex(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.PossibleKNN(f.queries[i%len(f.queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

func Benchmark_Ext_PossibleKNN_RTree(b *testing.B) {
	f := getFixture(b, 4000, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.db.PossibleKNN(f.queries[i%len(f.queries)], 4); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Continuous PNN: a random walk with safe regions versus re-running a
// full PNN at every step.

func Benchmark_Ext_Continuous_SafeRegion(b *testing.B) {
	f := getFixture(b, 4000, 40)
	rng := rand.New(rand.NewSource(3))
	sess, err := f.db.NewContinuousPNN(uvdiagram.Pt(benchSide/2, benchSide/2))
	if err != nil {
		b.Fatal(err)
	}
	q := uvdiagram.Pt(benchSide/2, benchSide/2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q = uvdiagram.Pt(
			math.Min(math.Max(q.X+rng.NormFloat64()*5, 1), benchSide-1),
			math.Min(math.Max(q.Y+rng.NormFloat64()*5, 1), benchSide-1),
		)
		if _, _, err := sess.Move(q); err != nil {
			b.Fatal(err)
		}
	}
	st := sess.Stats()
	b.ReportMetric(100*float64(st.Recomputes)/float64(st.Moves), "recompute%")
}

func Benchmark_Ext_Continuous_NaiveRequery(b *testing.B) {
	f := getFixture(b, 4000, 40)
	rng := rand.New(rand.NewSource(3))
	q := uvdiagram.Pt(benchSide/2, benchSide/2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q = uvdiagram.Pt(
			math.Min(math.Max(q.X+rng.NormFloat64()*5, 1), benchSide-1),
			math.Min(math.Max(q.Y+rng.NormFloat64()*5, 1), benchSide-1),
		)
		if _, _, err := f.db.PNN(q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// 3D UV-diagram: octree PNN versus brute force.

func get3DFixture(b *testing.B, n int) *uvdiagram.DB3 {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	objs := make([]uvdiagram.Object3, n)
	for i := range objs {
		objs[i] = uvdiagram.NewObject3(int32(i),
			5+rng.Float64()*990, 5+rng.Float64()*990, 5+rng.Float64()*990,
			2+rng.Float64()*5, uvdiagram.GaussianPDF3())
	}
	db, err := uvdiagram.Build3(objs, uvdiagram.CubeDomain(1000), nil)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func Benchmark_Ext_PNN3_Octree(b *testing.B) {
	db := get3DFixture(b, 2000)
	rng := rand.New(rand.NewSource(4))
	qs := make([]uvdiagram.Point3, 128)
	for i := range qs {
		qs[i] = uvdiagram.Pt3(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.PNN(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func Benchmark_Ext_PNN3_BruteForce(b *testing.B) {
	db := get3DFixture(b, 2000)
	rng := rand.New(rand.NewSource(4))
	qs := make([]uvdiagram.Point3, 128)
	for i := range qs {
		qs[i] = uvdiagram.Pt3(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.PNNBruteForce(qs[i%len(qs)])
	}
}

// ---------------------------------------------------------------------
// Network stack: codec and full loopback round trips.

func Benchmark_Ext_WireCodec(b *testing.B) {
	payload := make([]byte, 256)
	var sink byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf discardBuffer
		if err := wire.WriteFrame(&buf, wire.OpPNN, payload); err != nil {
			b.Fatal(err)
		}
		kind, _, err := wire.ReadFrame(&buf)
		if err != nil {
			b.Fatal(err)
		}
		sink ^= kind
	}
	_ = sink
}

// discardBuffer is a minimal read-back buffer for codec benchmarks.
type discardBuffer struct {
	b   []byte
	off int
}

func (d *discardBuffer) Write(p []byte) (int, error) {
	d.b = append(d.b, p...)
	return len(p), nil
}

func (d *discardBuffer) Read(p []byte) (int, error) {
	n := copy(p, d.b[d.off:])
	d.off += n
	return n, nil
}

func Benchmark_Ext_ServerRoundTrip(b *testing.B) {
	f := getFixture(b, 2000, 40)
	srv := server.New(f.db, nil)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	cli, err := server.Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.PNN(f.queries[i%len(f.queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
