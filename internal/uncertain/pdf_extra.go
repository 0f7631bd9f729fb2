package uncertain

import (
	"fmt"
	"math"
)

// Additional pdf families beyond the paper's uniform and Gaussian
// defaults. The uncertainty model of Section III allows an arbitrary
// pdf over the region; these constructors cover shapes that arise in
// the motivating applications.

// FromDensity discretizes an arbitrary radial density into a ring
// histogram: f(r) is the (unnormalized) density per unit AREA at
// normalized radius r ∈ [0, 1]. Ring masses are computed by midpoint
// quadrature of 2πr·f(r), so any radially symmetric law can be plugged
// into the uncertainty model.
func FromDensity(bins int, f func(r float64) float64) (*HistogramPDF, error) {
	if bins <= 0 {
		bins = DefaultBins
	}
	const sub = 16
	w := make([]float64, bins)
	for k := 0; k < bins; k++ {
		a := float64(k) / float64(bins)
		b := float64(k+1) / float64(bins)
		acc := 0.0
		for s := 0; s < sub; s++ {
			r := a + (b-a)*(float64(s)+0.5)/sub
			d := f(r)
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("uncertain: density %v at r=%v", d, r)
			}
			acc += 2 * math.Pi * r * d
		}
		w[k] = acc * (b - a) / sub
	}
	return NewHistogramPDF(w)
}

// Ring returns an annulus pdf: the position is uniformly distributed
// over the ring inner ≤ ρ ≤ 1 (normalized radius) and impossible
// inside. This models measurements that fix a distance but not a
// bearing — e.g. a device localized by signal round-trip time from a
// known anchor, one of the cloaking shapes suggested by the privacy
// literature the paper cites ([9], [10]).
func Ring(bins int, inner float64) (*HistogramPDF, error) {
	if inner < 0 || inner >= 1 {
		return nil, fmt.Errorf("uncertain: ring inner radius %v outside [0,1)", inner)
	}
	return FromDensity(bins, func(r float64) float64 {
		if r < inner {
			return 0
		}
		return 1
	})
}

// Exponential returns a pdf whose density decays exponentially with
// the distance from the center, f(r) ∝ exp(−r/scale) per unit area —
// a heavier-tailed alternative to the Gaussian for sensor error models.
func Exponential(bins int, scale float64) (*HistogramPDF, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("uncertain: exponential scale %v must be positive", scale)
	}
	return FromDensity(bins, func(r float64) float64 {
		return math.Exp(-r / scale)
	})
}

// Mean returns the expected normalized distance from the center,
// E[ρ], computed from the histogram (area-uniform within each ring the
// conditional mean of ρ on [a,b] is 2(b³−a³)/(3(b²−a²))).
func (p *HistogramPDF) Mean() float64 {
	n := p.Bins()
	acc := 0.0
	for k, w := range p.bins() {
		if w == 0 {
			continue
		}
		a := float64(k) / float64(n)
		b := float64(k+1) / float64(n)
		acc += w * 2 * (b*b*b - a*a*a) / (3 * (b*b - a*a))
	}
	return acc
}
