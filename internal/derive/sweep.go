package derive

import "math"

// PolishIters is the number of golden-section iterations RingMax spends
// on each local maximum of its ring.
const PolishIters = 40

// RingMax returns an inflated upper estimate of the maximum of the
// radial function eval, given its values vals over the uniform angle
// ring 2πi/len(vals): the best sample, improved by a golden-section
// polish of PolishIters iterations around every local maximum of the
// ring, times (1+1e-6). Callers use the result as a filter radius, so
// overestimating costs a little pruning while underestimating could
// drop an answer. A +Inf sample returns +Inf at once.
//
// The order-k cell's maximum radius (the k-th level of a lower envelope
// of radial bounds) and the reverse-NN cutoff D₂ (the 2nd level of the
// same kind of envelope) are both this sweep.
func RingMax(vals []float64, eval func(phi float64) float64) float64 {
	samples := len(vals)
	best := 0.0
	for i, v := range vals {
		if math.IsInf(v, 1) {
			return v
		}
		if v > best {
			best = v
		}
		prev := vals[(i+samples-1)%samples]
		next := vals[(i+1)%samples]
		if v >= prev && v >= next {
			lo := 2 * math.Pi * float64(i-1) / float64(samples)
			hi := 2 * math.Pi * float64(i+1) / float64(samples)
			if r := GoldenMax(eval, lo, hi, PolishIters); r > best {
				best = r
			}
		}
	}
	return best * (1 + 1e-6)
}

// GoldenMax maximizes f on [lo, hi] by golden-section search and
// returns the best value seen. f need not be unimodal on the bracket:
// the result is then still a lower bound on the maximum.
func GoldenMax(f func(float64) float64, lo, hi float64, iters int) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	best := math.Max(f1, f2)
	for i := 0; i < iters; i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		}
		if v := math.Max(f1, f2); v > best {
			best = v
		}
	}
	return best
}
