// Package prob3 computes PNN qualification probabilities for 3D
// uncertain objects, lifting the machinery of package prob: the exact
// answer-set predicate, distance distributions via shell/ball lens
// volumes, numerical integration in the style of [14], and a
// Monte-Carlo cross-check.
package prob3

import (
	"math"
	"math/rand"

	"uvdiagram/internal/geom3"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/uncertain3"
)

// DistanceCDF3 returns F(r) = P(dist(q, X) ≤ r) where X is the
// object's uncertain 3D position: the mass of each pdf shell inside the
// ball Ball(q, r), proportional to the ball–shell lens volume.
func DistanceCDF3(o uncertain3.Object3, q geom3.Point3, r float64) float64 {
	if o.Region.R == 0 {
		if r >= q.Dist(o.Region.C) {
			return 1
		}
		return 0
	}
	if r <= o.DistMin(q) {
		return 0
	}
	if r >= o.DistMax(q) {
		return 1
	}
	ball := geom3.Sphere{C: q, R: r}
	n := o.PDF.Bins()
	acc := 0.0
	for k := 0; k < n; k++ {
		w := o.PDF.Bin(k)
		if w == 0 {
			continue
		}
		a := o.Region.R * float64(k) / float64(n)
		b := o.Region.R * float64(k+1) / float64(n)
		shellVol := 4 * math.Pi / 3 * (b*b*b - a*a*a)
		if shellVol <= 0 {
			continue
		}
		part := geom3.BallLensVolume(ball, geom3.Sphere{C: o.Region.C, R: b}) -
			geom3.BallLensVolume(ball, geom3.Sphere{C: o.Region.C, R: a})
		acc += w * part / shellVol
	}
	if acc < 0 {
		return 0
	}
	if acc > 1 {
		return 1
	}
	return acc
}

// Dminmax3 returns min_i distmax(q, Oi) and the minimizing index
// (-1 for empty input).
func Dminmax3(objs []uncertain3.Object3, q geom3.Point3) (float64, int) {
	best, arg := math.Inf(1), -1
	for i := range objs {
		if d := objs[i].DistMax(q); d < best {
			best, arg = d, i
		}
	}
	return best, arg
}

// AnswerSet3 returns the indices of the objects with strictly positive
// qualification probability at q: those with
// distmin(Oi, q) < min_{j≠i} distmax(Oj, q). The predicate is
// dimension-free.
func AnswerSet3(objs []uncertain3.Object3, q geom3.Point3) []int {
	n := len(objs)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{0}
	}
	m1, m2 := math.Inf(1), math.Inf(1)
	arg1 := -1
	for i := range objs {
		d := objs[i].DistMax(q)
		if d < m1 {
			m1, m2, arg1 = d, m1, i
		} else if d < m2 {
			m2 = d
		}
	}
	var ans []int
	for i := range objs {
		other := m1
		if i == arg1 {
			other = m2
		}
		if objs[i].DistMin(q) < other {
			ans = append(ans, i)
		}
	}
	return ans
}

// Probs3 computes the qualification probability of every object for the
// 3D PNN at q by the numerical integration of [14]:
//
//	P_i = ∫ (dF_i/dr)(r) · Π_{j≠i} (1 − F_j(r)) dr
//
// over the support [min distmin, dminmax], on the 2-D quadrature.
func Probs3(objs []uncertain3.Object3, q geom3.Point3) []float64 {
	out := make([]float64, len(objs))
	ans := AnswerSet3(objs, q)
	switch len(ans) {
	case 0:
		return out
	case 1:
		out[ans[0]] = 1
		return out
	}

	lo := math.Inf(1)
	for _, i := range ans {
		lo = math.Min(lo, objs[i].DistMin(q))
	}
	hi, _ := Dminmax3(objs, q)
	if hi <= lo {
		for _, i := range ans {
			out[i] = 1 / float64(len(ans))
		}
		return out
	}

	p := prob.Integrate(len(ans), lo, hi, func(a int, r float64) float64 {
		return DistanceCDF3(objs[ans[a]], q, r)
	}, new(prob.Scratch))
	for a, i := range ans {
		out[i] = p[a]
	}
	return out
}

// MonteCarloProbs3 estimates the qualification probabilities by
// sampling possible worlds, the unbiased cross-check for Probs3.
func MonteCarloProbs3(objs []uncertain3.Object3, q geom3.Point3, trials int, seed int64) []float64 {
	out := make([]float64, len(objs))
	if len(objs) == 0 || trials <= 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int64, len(objs))
	for t := 0; t < trials; t++ {
		best, arg := math.Inf(1), -1
		for i := range objs {
			if d := objs[i].Sample(rng).Dist(q); d < best {
				best, arg = d, i
			}
		}
		counts[arg]++
	}
	for i := range out {
		out[i] = float64(counts[i]) / float64(trials)
	}
	return out
}
