package prob

import (
	"math"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// DefaultSteps is the default resolution of the numerical integration.
const DefaultSteps = 200

// Scratch holds the reusable buffers of the probability integration —
// the answer-set index list, the candidates' sweep state with the rings
// behind it, and the out/fPrev/fNext/fMid vectors that Probs used
// to allocate per query. Batch engines keep one per worker (pooled
// through batchState) so steady-state PNN probability computation
// allocates nothing. A scratch is single-goroutine state; slices
// returned through it are valid until the next call with the same
// scratch.
type Scratch struct {
	out   []float64
	ans   []int
	sw    []sweep // one per candidate
	rings []ring  // backing store of the answer set's sweep rings
	fPrev []float64
	fNext []float64
	fMid  []float64
}

func (sc *Scratch) floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Probs computes the qualification probability of every object in objs
// for the PNN at q, using the numerical-integration method of [14]:
//
//	P_i = ∫ (dF_i/dr)(r) · Π_{j≠i} (1 − F_j(r)) dr
//
// evaluated as a Riemann–Stieltjes sum over a uniform grid of the
// support [min distmin, second-smallest distmax]. Objects outside the
// answer set get exactly 0. steps ≤ 0 selects DefaultSteps.
//
// The caller typically passes the candidate set produced by an index;
// passing the full dataset is valid, only slower.
func Probs(objs []uncertain.Object, q geom.Point, steps int) []float64 {
	return ProbsScratch(objs, q, steps, nil)
}

// ProbsScratch is Probs through an optional scratch: the returned slice
// aliases sc.out and is valid until the next call with the same
// scratch. A nil scratch allocates fresh buffers, making it identical
// to Probs. The arithmetic — and therefore every probability, bitwise —
// is the same on both paths.
func ProbsScratch(objs []uncertain.Object, q geom.Point, steps int, sc *Scratch) []float64 {
	if sc == nil {
		sc = &Scratch{}
	}
	if steps <= 0 {
		steps = DefaultSteps
	}
	out := sc.floats(&sc.out, len(objs))
	for i := range out {
		out[i] = 0
	}
	sw := sc.sw[:0]
	for i := range objs {
		sw = append(sw, reach(objs[i], q))
	}
	sc.sw = sw
	sc.ans = answerSetInto(sc.ans[:0], len(sw), func(i int) (float64, float64) {
		return sw[i].min, sw[i].max
	})
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
	lo, hi := math.Inf(1), math.Inf(1)
	for _, i := range ans {
		lo = math.Min(lo, sw[i].min)
	}
	for i := range sw {
		hi = math.Min(hi, sw[i].max)
	}
	if hi <= lo {
		// Degenerate support (can happen with coincident point objects):
		// split the mass evenly among answer objects.
		for _, i := range ans {
			out[i] = 1 / float64(len(ans))
		}
		return out
	}

	k := len(ans)
	h := (hi - lo) / float64(steps)
	fPrev := sc.floats(&sc.fPrev, k)
	fNext := sc.floats(&sc.fNext, k)
	fMid := sc.floats(&sc.fMid, k)
	sc.rings = sc.rings[:0]
	for a, i := range ans {
		sw[i], sc.rings = sw[i].arm(objs[i], sc.rings)
		fPrev[a] = sw[i].cdf(lo)
	}
	for t := 0; t < steps; t++ {
		r1 := lo + float64(t+1)*h
		mid := lo + (float64(t)+0.5)*h
		for a, i := range ans {
			fNext[a] = sw[i].cdf(r1)
			fMid[a] = sw[i].cdf(mid)
		}
		for a := range ans {
			df := fNext[a] - fPrev[a]
			if df <= 0 {
				continue
			}
			prod := 1.0
			for b := range ans {
				if b == a {
					continue
				}
				prod *= 1 - fMid[b]
				if prod == 0 {
					break
				}
			}
			out[ans[a]] += df * prod
		}
		copy(fPrev, fNext)
	}
	return out
}
