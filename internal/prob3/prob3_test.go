package prob3

import (
	"math"
	"math/rand"
	"testing"

	"uvdiagram/internal/geom3"
	"uvdiagram/internal/uncertain3"
)

func randObjs3(n int, side, maxR float64, seed int64) []uncertain3.Object3 {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]uncertain3.Object3, n)
	for i := range objs {
		c := geom3.P3(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side)
		objs[i] = uncertain3.New3(int32(i),
			geom3.Sphere{C: c, R: 1 + rng.Float64()*maxR}, uncertain3.PaperGaussian3())
	}
	return objs
}

func TestDistanceCDF3Endpoints(t *testing.T) {
	o := uncertain3.New3(0, geom3.Sphere{C: geom3.P3(10, 0, 0), R: 3}, nil)
	q := geom3.P3(0, 0, 0)
	if v := DistanceCDF3(o, q, o.DistMin(q)); v != 0 {
		t.Fatalf("CDF at distmin = %v", v)
	}
	if v := DistanceCDF3(o, q, o.DistMax(q)); v != 1 {
		t.Fatalf("CDF at distmax = %v", v)
	}
	prev := 0.0
	for i := 0; i <= 60; i++ {
		r := 7 + 6*float64(i)/60
		v := DistanceCDF3(o, q, r)
		if v < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v: %v < %v", r, v, prev)
		}
		prev = v
	}
}

func TestDistanceCDF3MatchesSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := uncertain3.New3(0, geom3.Sphere{C: geom3.P3(5, 5, 5), R: 4}, uncertain3.PaperGaussian3())
	q := geom3.P3(0, 0, 0)
	const n = 40000
	for _, r := range []float64{5, 7, 9, 11, 12.5} {
		hits := 0
		for i := 0; i < n; i++ {
			if o.Sample(rng).Dist(q) <= r {
				hits++
			}
		}
		mc := float64(hits) / n
		if got := DistanceCDF3(o, q, r); math.Abs(got-mc) > 0.02 {
			t.Fatalf("r=%v: CDF %v vs sampling %v", r, got, mc)
		}
	}
}

func TestDistanceCDF3PointObject(t *testing.T) {
	o := uncertain3.New3(0, geom3.Sphere{C: geom3.P3(3, 4, 0), R: 0}, nil)
	q := geom3.P3(0, 0, 0)
	if v := DistanceCDF3(o, q, 4.99); v != 0 {
		t.Fatalf("below distance: %v", v)
	}
	if v := DistanceCDF3(o, q, 5); v != 1 {
		t.Fatalf("at distance: %v", v)
	}
}

func TestProbs3SumToOne(t *testing.T) {
	objs := randObjs3(12, 50, 6, 1)
	q := geom3.P3(25, 25, 25)
	ps := Probs3(objs, q)
	sum := 0.0
	for _, p := range ps {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v outside [0,1]", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 0.02 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestProbs3MatchesMonteCarlo(t *testing.T) {
	objs := randObjs3(8, 30, 5, 2)
	q := geom3.P3(15, 15, 15)
	integ := Probs3(objs, q)
	mc := MonteCarloProbs3(objs, q, 60000, 3)
	for i := range objs {
		if math.Abs(integ[i]-mc[i]) > 0.03 {
			t.Fatalf("object %d: integration %v vs Monte-Carlo %v", i, integ[i], mc[i])
		}
	}
}

func TestProbs3ZeroOutsideAnswerSet(t *testing.T) {
	objs := randObjs3(20, 100, 4, 4)
	q := geom3.P3(50, 50, 50)
	ps := Probs3(objs, q)
	inSet := make(map[int]bool)
	for _, i := range AnswerSet3(objs, q) {
		inSet[i] = true
	}
	for i, p := range ps {
		if !inSet[i] && p != 0 {
			t.Fatalf("non-answer %d has probability %v", i, p)
		}
		if inSet[i] && p <= 0 {
			t.Fatalf("answer %d has probability %v", i, p)
		}
	}
}

func TestAnswerSet3SingleAndPoint(t *testing.T) {
	single := randObjs3(1, 10, 2, 5)
	if got := AnswerSet3(single, geom3.P3(0, 0, 0)); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single object answer set = %v", got)
	}
	// Point objects degenerate to the ordinary nearest neighbor.
	pts := []uncertain3.Object3{
		uncertain3.New3(0, geom3.Sphere{C: geom3.P3(1, 0, 0)}, nil),
		uncertain3.New3(1, geom3.Sphere{C: geom3.P3(5, 0, 0)}, nil),
		uncertain3.New3(2, geom3.Sphere{C: geom3.P3(0, 9, 0)}, nil),
	}
	got := AnswerSet3(pts, geom3.P3(0, 0, 0))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("point answer set = %v, want [0]", got)
	}
}
