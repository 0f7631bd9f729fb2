package prob

import (
	"math"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// The reference kernel: the arithmetic LensArea, DistanceCDF and the
// answer-set/support set-up of ProbsScratch had before the radial-sweep
// kernel replaced them — one Hypot, two Acos, two Sin and two Cos per
// lens, two lenses per ring, everything recomputed at every radius —
// kept verbatim so the parity and ratio tests (parity_test.go) have a
// fixed point to compare against. It integrates on the shared driver
// (Integrate), at the same radii as the sweep kernel, so those tests
// isolate the F machinery. Nothing outside the tests calls it.

// refLensArea is the pre-sweep geom.LensArea.
func refLensArea(a, b geom.Circle) float64 {
	if a.R == 0 || b.R == 0 {
		return 0
	}
	d := a.C.Dist(b.C)
	if d >= a.R+b.R {
		return 0
	}
	if d <= math.Abs(a.R-b.R) {
		r := math.Min(a.R, b.R)
		return math.Pi * r * r
	}
	// Half-angles subtended by the chord at each center.
	alpha := math.Acos(refClamp((d*d+a.R*a.R-b.R*b.R)/(2*d*a.R), -1, 1))
	beta := math.Acos(refClamp((d*d+b.R*b.R-a.R*a.R)/(2*d*b.R), -1, 1))
	return a.R*a.R*(alpha-math.Sin(alpha)*math.Cos(alpha)) +
		b.R*b.R*(beta-math.Sin(beta)*math.Cos(beta))
}

func refClamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// refDistanceCDF is the pre-sweep DistanceCDF: 2n independent lenses.
func refDistanceCDF(o uncertain.Object, q geom.Point, r float64) float64 {
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
	disk := geom.Circle{C: q, R: r}
	n := o.PDF.Bins()
	acc := 0.0
	for k := 0; k < n; k++ {
		w := o.PDF.Bin(k)
		if w == 0 {
			continue
		}
		a := o.Region.R * float64(k) / float64(n)
		b := o.Region.R * float64(k+1) / float64(n)
		ringArea := math.Pi * (b*b - a*a)
		if ringArea <= 0 {
			continue
		}
		part := refLensArea(disk, geom.Circle{C: o.Region.C, R: b}) -
			refLensArea(disk, geom.Circle{C: o.Region.C, R: a})
		acc += w * part / ringArea
	}
	if acc < 0 {
		return 0
	}
	if acc > 1 {
		return 1
	}
	return acc
}

// refAnswerSetInto is the pre-sweep answerSetInto.
func refAnswerSetInto(ans []int, objs []uncertain.Object, q geom.Point) []int {
	n := len(objs)
	if n == 0 {
		return ans
	}
	if n == 1 {
		return append(ans, 0)
	}
	// Two smallest distmax values decide min_{j≠i}.
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

// refScratch is the pre-sweep Scratch, with the shared driver's.
type refScratch struct {
	out  []float64
	ans  []int
	quad Scratch
}

// refProbs is the pre-sweep ProbsScratch.
func refProbs(objs []uncertain.Object, q geom.Point, sc *refScratch) []float64 {
	if sc == nil {
		sc = &refScratch{}
	}
	out := sc.quad.floats(&sc.out, len(objs))
	for i := range out {
		out[i] = 0
	}
	sc.ans = refAnswerSetInto(sc.ans[:0], objs, q)
	ans := sc.ans
	switch len(ans) {
	case 0:
		return out
	case 1:
		out[ans[0]] = 1
		return out
	}

	// Integration support: every integrand vanishes beyond the smallest
	// distmax (the minimizing object's density is zero there and its
	// survival factor kills every other product), so [lo, dminmax]
	// suffices — which is also why the dminmax candidate filter of [14]
	// is exact.
	lo := math.Inf(1)
	for _, i := range ans {
		lo = math.Min(lo, objs[i].DistMin(q))
	}
	hi, _ := Dminmax(objs, q)
	if hi <= lo {
		// Degenerate support (can happen with coincident point objects):
		// split the mass evenly among answer objects.
		for _, i := range ans {
			out[i] = 1 / float64(len(ans))
		}
		return out
	}

	p := Integrate(len(ans), lo, hi, func(a int, r float64) float64 {
		return refDistanceCDF(objs[ans[a]], q, r)
	}, &sc.quad)
	for a, i := range ans {
		out[i] = p[a]
	}
	return out
}
