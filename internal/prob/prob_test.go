package prob

import (
	"math"
	"math/rand"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

func obj(id int32, x, y, r float64) uncertain.Object {
	return uncertain.New(id, geom.Circle{C: geom.Pt(x, y), R: r}, uncertain.PaperGaussian())
}

func uobj(id int32, x, y, r float64) uncertain.Object {
	return uncertain.New(id, geom.Circle{C: geom.Pt(x, y), R: r}, uncertain.Uniform(20))
}

func TestDistanceCDFEndpoints(t *testing.T) {
	o := uobj(0, 10, 0, 3)
	q := geom.Pt(0, 0)
	if got := DistanceCDF(o, q, o.DistMin(q)); got != 0 {
		t.Errorf("F(distmin) = %v", got)
	}
	if got := DistanceCDF(o, q, o.DistMax(q)); got != 1 {
		t.Errorf("F(distmax) = %v", got)
	}
	if got := DistanceCDF(o, q, 1); got != 0 {
		t.Errorf("F below support = %v", got)
	}
	if got := DistanceCDF(o, q, 100); got != 1 {
		t.Errorf("F above support = %v", got)
	}
}

func TestDistanceCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		o := obj(0, rng.Float64()*20, rng.Float64()*20, 1+rng.Float64()*4)
		q := geom.Pt(rng.Float64()*40-10, rng.Float64()*40-10)
		lo, hi := o.DistMin(q), o.DistMax(q)
		prev := -1.0
		for i := 0; i <= 200; i++ {
			r := lo + (hi-lo)*float64(i)/200
			f := DistanceCDF(o, q, r)
			if f < prev-1e-9 {
				t.Fatalf("cdf decreasing at r=%v: %v < %v", r, f, prev)
			}
			if f < 0 || f > 1 {
				t.Fatalf("cdf out of range: %v", f)
			}
			prev = f
		}
	}
}

// TestDistanceCDFAgainstSampling: the analytic lens-based CDF must match
// the empirical distance distribution.
func TestDistanceCDFAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, pdf := range []*uncertain.HistogramPDF{uncertain.Uniform(20), uncertain.PaperGaussian()} {
		o := uncertain.New(0, geom.Circle{C: geom.Pt(5, 5), R: 2}, pdf)
		q := geom.Pt(0, 1)
		const n = 100000
		var ds []float64
		for i := 0; i < n; i++ {
			ds = append(ds, o.Sample(rng).Dist(q))
		}
		for _, r := range []float64{4.5, 5.2, 6.0, 6.8} {
			cnt := 0
			for _, d := range ds {
				if d <= r {
					cnt++
				}
			}
			emp := float64(cnt) / n
			ana := DistanceCDF(o, q, r)
			if math.Abs(emp-ana) > 0.01 {
				t.Errorf("r=%v: empirical %v vs analytic %v", r, emp, ana)
			}
		}
	}
}

func TestDistanceCDFPointObject(t *testing.T) {
	o := uncertain.New(0, geom.Circle{C: geom.Pt(3, 0), R: 0}, nil)
	q := geom.Pt(0, 0)
	if DistanceCDF(o, q, 2.9) != 0 || DistanceCDF(o, q, 3.0) != 1 {
		t.Error("point-object cdf must be a step at the distance")
	}
}

func TestDminmax(t *testing.T) {
	objs := []uncertain.Object{obj(0, 0, 0, 1), obj(1, 10, 0, 2), obj(2, 4, 0, 1)}
	q := geom.Pt(0, 0)
	d, arg := Dminmax(objs, q)
	if arg != 0 || d != 1 {
		t.Errorf("Dminmax = %v, %d", d, arg)
	}
	if _, arg := Dminmax(nil, q); arg != -1 {
		t.Error("empty Dminmax should return -1")
	}
}

func TestAnswerSetBasic(t *testing.T) {
	// Far-apart objects: only the closest can be the NN.
	objs := []uncertain.Object{obj(0, 0, 0, 1), obj(1, 100, 0, 1), obj(2, 200, 0, 1)}
	q := geom.Pt(1, 0)
	ans := AnswerSet(objs, q)
	if len(ans) != 1 || ans[0] != 0 {
		t.Errorf("AnswerSet = %v", ans)
	}
	// Two overlapping-in-distance objects.
	objs = []uncertain.Object{obj(0, 0, 0, 3), obj(1, 4, 0, 3), obj(2, 100, 0, 1)}
	ans = AnswerSet(objs, geom.Pt(2, 0))
	if len(ans) != 2 {
		t.Errorf("AnswerSet = %v, want {0,1}", ans)
	}
	if got := AnswerSet(objs[:1], q); len(got) != 1 {
		t.Error("singleton dataset must answer itself")
	}
}

// TestAnswerSetAgainstSampling: every object with empirical win
// frequency > 0 must be in the answer set, and (for comfortable margins)
// vice versa.
func TestAnswerSetAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		objs := make([]uncertain.Object, n)
		for i := range objs {
			objs[i] = uobj(int32(i), rng.Float64()*30, rng.Float64()*30, 0.5+rng.Float64()*3)
		}
		q := geom.Pt(rng.Float64()*30, rng.Float64()*30)
		ans := AnswerSet(objs, q)
		inAns := map[int]bool{}
		for _, i := range ans {
			inAns[i] = true
		}
		mc := MonteCarloProbs(objs, q, 4000, int64(trial))
		for i, p := range mc {
			if p > 0.01 && !inAns[i] {
				t.Fatalf("trial %d: object %d wins %v of samples but not in answer set %v",
					trial, i, p, ans)
			}
		}
	}
}

func TestProbsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(7)
		objs := make([]uncertain.Object, n)
		for i := range objs {
			objs[i] = obj(int32(i), rng.Float64()*30, rng.Float64()*30, 0.5+rng.Float64()*4)
		}
		q := geom.Pt(rng.Float64()*30, rng.Float64()*30)
		ps := Probs(objs, q)
		sum := 0.0
		for _, p := range ps {
			if p < 0 || p > 1+1e-9 {
				t.Fatalf("trial %d: probability %v out of range", trial, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 0.02 {
			t.Fatalf("trial %d: probabilities sum to %v", trial, sum)
		}
	}
}

func TestProbsMatchMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(4)
		objs := make([]uncertain.Object, n)
		for i := range objs {
			objs[i] = uobj(int32(i), rng.Float64()*20, rng.Float64()*20, 1+rng.Float64()*4)
		}
		q := geom.Pt(rng.Float64()*20, rng.Float64()*20)
		ana := Probs(objs, q)
		mc := MonteCarloProbs(objs, q, 60000, int64(trial)+100)
		for i := range objs {
			if math.Abs(ana[i]-mc[i]) > 0.02 {
				t.Errorf("trial %d obj %d: integrated %v vs MC %v", trial, i, ana[i], mc[i])
			}
		}
	}
}

func TestProbsSingleAnswerShortcut(t *testing.T) {
	objs := []uncertain.Object{obj(0, 0, 0, 1), obj(1, 1000, 0, 1)}
	ps := Probs(objs, geom.Pt(0, 0))
	if ps[0] != 1 || ps[1] != 0 {
		t.Errorf("Probs = %v", ps)
	}
	if ps := Probs(nil, geom.Pt(0, 0)); len(ps) != 0 {
		t.Errorf("empty Probs = %v", ps)
	}
}
