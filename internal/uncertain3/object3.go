// Package uncertain3 models three-dimensional uncertain objects for the
// multi-dimensional UV-diagram extension: a spherical uncertainty
// region plus a radial shell-histogram pdf, the 3D analogue of the
// paper's 2D circular region with a ring histogram (Section VI-A).
package uncertain3

import (
	"fmt"
	"math"
	"math/rand"

	"uvdiagram/internal/geom3"
)

// DefaultBins mirrors the paper's 20 histogram bars.
const DefaultBins = 20

// PDF3 is a radial probability histogram over the unit ball: bin k
// carries the probability mass of the shell [k/n, (k+1)/n) of the
// normalized radius, uniform in VOLUME within a shell (the 2D model is
// uniform in area within a ring).
type PDF3 struct {
	bins []float64
	cum  []float64 // cum[k] = Σ bins[<k]; len = len(bins)+1
}

// NewPDF3 normalizes the weights into a shell histogram. Like
// uncertain.NewHistogramPDF it is idempotent, so a pdf round-trips
// through its stored bars bit for bit: weights whose total is within
// n·2⁻⁵² of 1 are already normalized and are divided by exactly 1.
func NewPDF3(weights []float64) (*PDF3, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("uncertain3: empty pdf")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("uncertain3: invalid pdf weight %v", w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("uncertain3: pdf has zero mass")
	}
	if math.IsInf(total, 0) {
		return nil, fmt.Errorf("uncertain3: pdf's total mass overflows")
	}
	if math.Abs(total-1) <= float64(len(weights))*0x1p-52 {
		total = 1
	}
	p := &PDF3{bins: make([]float64, len(weights)), cum: make([]float64, len(weights)+1)}
	for i, w := range weights {
		p.bins[i] = w / total
		p.cum[i+1] = p.cum[i] + p.bins[i]
	}
	return p, nil
}

// Uniform3 returns the volume-uniform pdf over the ball with the given
// number of shells: shell k gets mass proportional to its volume,
// ((k+1)³ − k³)/n³.
func Uniform3(bins int) *PDF3 {
	if bins <= 0 {
		bins = DefaultBins
	}
	w := make([]float64, bins)
	n3 := float64(bins * bins * bins)
	for k := 0; k < bins; k++ {
		a, b := float64(k), float64(k+1)
		w[k] = (b*b*b - a*a*a) / n3
	}
	p, _ := NewPDF3(w)
	return p
}

// Gaussian3 returns an isotropic Gaussian pdf truncated to the ball,
// with σ = sigmaFrac of the radius: shell k gets mass
// ∝ ∫ r²·exp(−r²/2σ²) dr over the shell (numerical quadrature at
// construction).
func Gaussian3(bins int, sigmaFrac float64) *PDF3 {
	if bins <= 0 {
		bins = DefaultBins
	}
	if sigmaFrac <= 0 {
		sigmaFrac = 1.0 / 3.0
	}
	w := make([]float64, bins)
	const sub = 32
	for k := 0; k < bins; k++ {
		a := float64(k) / float64(bins)
		b := float64(k+1) / float64(bins)
		acc := 0.0
		for s := 0; s < sub; s++ {
			r := a + (b-a)*(float64(s)+0.5)/sub
			acc += r * r * math.Exp(-r*r/(2*sigmaFrac*sigmaFrac))
		}
		w[k] = acc * (b - a) / sub
	}
	p, _ := NewPDF3(w)
	return p
}

// PaperGaussian3 mirrors the paper's default: DefaultBins shells of a
// Gaussian with σ = diameter/6 (i.e. one third of the radius).
func PaperGaussian3() *PDF3 { return Gaussian3(DefaultBins, 1.0/3.0) }

// Bins returns the number of shells.
func (p *PDF3) Bins() int { return len(p.bins) }

// Bin returns the probability mass of shell k.
func (p *PDF3) Bin(k int) float64 { return p.bins[k] }

// Weights returns a copy of the normalized shell masses.
func (p *PDF3) Weights() []float64 {
	w := make([]float64, len(p.bins))
	copy(w, p.bins)
	return w
}

// CumRadius returns P(ρ ≤ r) for the normalized radius r in [0, 1],
// interpolating uniformly in volume inside a shell.
func (p *PDF3) CumRadius(r float64) float64 {
	n := len(p.bins)
	if r <= 0 {
		return 0
	}
	if r >= 1 {
		return 1
	}
	k := int(r * float64(n))
	if k >= n {
		k = n - 1
	}
	a := float64(k) / float64(n)
	b := float64(k+1) / float64(n)
	frac := (r*r*r - a*a*a) / (b*b*b - a*a*a)
	return p.cum[k] + p.bins[k]*frac
}

// SampleRadius draws a normalized radius from the radial law.
func (p *PDF3) SampleRadius(rng *rand.Rand) float64 {
	u := rng.Float64()
	lo, hi := 0, len(p.bins)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cum[mid+1] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	k := lo
	if k >= len(p.bins) {
		k = len(p.bins) - 1
	}
	n := float64(len(p.bins))
	a := float64(k) / n
	b := float64(k+1) / n
	var frac float64
	if p.bins[k] > 0 {
		frac = (u - p.cum[k]) / p.bins[k]
	}
	// Uniform in volume within the shell.
	return math.Cbrt(a*a*a + frac*(b*b*b-a*a*a))
}

// Object3 is a 3D uncertain object: ID, spherical uncertainty region
// and radial pdf. A nil PDF with a positive radius means volume-uniform.
type Object3 struct {
	ID     int32
	Region geom3.Sphere
	PDF    *PDF3
}

// New3 builds an object; a nil pdf defaults to Uniform3.
func New3(id int32, region geom3.Sphere, pdf *PDF3) Object3 {
	if pdf == nil && region.R > 0 {
		pdf = Uniform3(DefaultBins)
	}
	return Object3{ID: id, Region: region, PDF: pdf}
}

// DistMin returns the minimum distance of the object from q
// (Equation 2 lifted to 3D).
func (o Object3) DistMin(q geom3.Point3) float64 {
	d := q.Dist(o.Region.C) - o.Region.R
	if d < 0 {
		return 0
	}
	return d
}

// DistMax returns the maximum distance of the object from q
// (Equation 3 lifted to 3D).
func (o Object3) DistMax(q geom3.Point3) float64 {
	return q.Dist(o.Region.C) + o.Region.R
}

// Sample draws a possible position from the object's pdf.
func (o Object3) Sample(rng *rand.Rand) geom3.Point3 {
	if o.Region.R == 0 {
		return o.Region.C
	}
	r := o.PDF.SampleRadius(rng) * o.Region.R
	// Uniform direction on the sphere.
	for {
		v := geom3.P3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if n := v.Norm(); n > 1e-12 {
			return o.Region.C.Add(v.Scale(r / n))
		}
	}
}
