package uncertain

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// DefaultBins is the number of histogram bars used by the paper's
// experiments (Section VI-A).
const DefaultBins = 20

// HistogramPDF is a radially symmetric density over the unit disk,
// discretized into equal-width concentric rings: Bin(k) is the
// probability that the normalized distance from the center lies in
// [k/n, (k+1)/n). Within a ring the density is uniform per unit area.
// Scaling to an object's actual radius is done by the callers.
type HistogramPDF struct {
	// mass holds the n bins, normalized to sum to 1, then the n+1
	// cumulative sums, cum[k] = sum of bins[0..k-1]: one array, as a
	// population may hold a pdf per object.
	mass  []float64
	shape atomic.Pointer[pdfShape] // nil until a store interns p or Derived runs
}

// pdfShape is what a pdf carries as a shape: its slot in the store
// that interned it and the kernel's precomputation (Derived).
type pdfShape struct {
	// slot is the pdf's index in the shape list of the store that
	// interned it (Store.decode); a pdf no store interned never matches
	// its slot there (View.Share).
	slot    int32
	once    sync.Once
	derived any
}

func (p *HistogramPDF) bins() []float64 { return p.mass[:len(p.mass)/2] }
func (p *HistogramPDF) cum() []float64  { return p.mass[len(p.mass)/2:] }

// shaped returns p's shape, making an empty one first if it has none.
func (p *HistogramPDF) shaped() *pdfShape {
	if s := p.shape.Load(); s != nil {
		return s
	}
	p.shape.CompareAndSwap(nil, new(pdfShape))
	return p.shape.Load()
}

// NewHistogramPDF builds a pdf from raw non-negative ring masses,
// normalizing them to sum to 1.
//
// Normalization is idempotent: NewHistogramPDF(p.Weights()) is p, bit
// for bit, so a pdf round-trips through its stored record. Dividing by
// a floating-point total moves each bar by up to half an ulp, and the
// sum of the divided bars misses 1 by up to about 2n·2⁻⁵³ for n bars
// (n−1 roundings in each of the two sums, one in the quotients). Weights
// whose total is within n·2⁻⁵² of 1 are therefore taken as already
// normalized and divided by exactly 1.
func NewHistogramPDF(weights []float64) (*HistogramPDF, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("uncertain: histogram pdf needs at least one bin")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("uncertain: bin %d has invalid weight %v", i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("uncertain: histogram pdf has zero total mass")
	}
	if math.IsInf(total, 0) {
		return nil, fmt.Errorf("uncertain: histogram pdf's total mass overflows")
	}
	n := len(weights)
	if math.Abs(total-1) <= float64(n)*0x1p-52 {
		total = 1
	}
	p := &HistogramPDF{mass: make([]float64, 2*n+1)}
	bins, cum := p.bins(), p.cum()
	for i, w := range weights {
		bins[i] = w / total
		cum[i+1] = cum[i] + bins[i]
	}
	cum[n] = 1
	return p, nil
}

// Uniform returns the pdf of a position uniformly distributed over the
// disk: ring masses proportional to ring areas.
func Uniform(bins int) *HistogramPDF {
	w := make([]float64, bins)
	for k := range w {
		a := float64(k) / float64(bins)
		b := float64(k+1) / float64(bins)
		w[k] = b*b - a*a
	}
	p, err := NewHistogramPDF(w)
	if err != nil {
		panic(err) // unreachable: weights are positive
	}
	return p
}

// Gaussian returns the pdf used throughout the paper's evaluation: a
// circular Gaussian centered at the region center with standard
// deviation sigmaFrac times the region radius (the paper sets the
// variance to the square of one sixth of the diameter, i.e.
// sigmaFrac = 1/3), truncated to the region and discretized into the
// given number of ring bars via the Rayleigh radial law.
func Gaussian(bins int, sigmaFrac float64) *HistogramPDF {
	if sigmaFrac <= 0 {
		panic("uncertain: Gaussian sigmaFrac must be positive")
	}
	w := make([]float64, bins)
	s2 := 2 * sigmaFrac * sigmaFrac
	for k := range w {
		a := float64(k) / float64(bins)
		b := float64(k+1) / float64(bins)
		// P(a ≤ ρ ≤ b) for Rayleigh: exp(-a²/2σ²) − exp(-b²/2σ²).
		w[k] = math.Exp(-a*a/s2) - math.Exp(-b*b/s2)
	}
	p, err := NewHistogramPDF(w)
	if err != nil {
		panic(err) // unreachable
	}
	return p
}

// PaperGaussian is the exact pdf configuration of Section VI-A: 20 bars,
// σ = diameter/6 = radius/3.
func PaperGaussian() *HistogramPDF { return Gaussian(DefaultBins, 1.0/3.0) }

// Bins returns the number of histogram bars.
func (p *HistogramPDF) Bins() int { return len(p.mass) / 2 }

// Bin returns the probability mass of ring k.
func (p *HistogramPDF) Bin(k int) float64 { return p.bins()[k] }

// CumRadius returns P(ρ ≤ r) for the normalized radius r in [0, 1],
// interpolating uniformly in area inside a ring.
func (p *HistogramPDF) CumRadius(r float64) float64 {
	bins, cum := p.bins(), p.cum()
	n := len(bins)
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
	frac := (r*r - a*a) / (b*b - a*a)
	return cum[k] + bins[k]*frac
}

// SampleRadius draws a normalized radius in [0, 1] from the radial law.
func (p *HistogramPDF) SampleRadius(rng *rand.Rand) float64 {
	u := rng.Float64()
	bins, cum := p.bins(), p.cum()
	// Binary search the cumulative table.
	lo, hi := 0, len(bins)
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid+1] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	k := lo
	if k >= len(bins) {
		k = len(bins) - 1
	}
	n := float64(len(bins))
	a := float64(k) / n
	b := float64(k+1) / n
	var frac float64
	if bins[k] > 0 {
		frac = (u - cum[k]) / bins[k]
	}
	// Uniform in area within the ring.
	return math.Sqrt(a*a + frac*(b*b-a*a))
}

// Derived returns build(p), computed once per pdf: concurrent first
// callers wait for the one computation and all get its result, and the
// result lives as long as the pdf. It is how a kernel keeps per-shape
// precomputation (prob's distance-CDF table) on the store's interned
// pdf. Every call for one pdf must pass the same build.
func (p *HistogramPDF) Derived(build func(*HistogramPDF) any) any {
	s := p.shaped()
	s.once.Do(func() { s.derived = build(p) })
	return s.derived
}

// Weights returns a copy of the normalized bin masses (used by the page
// encoders).
func (p *HistogramPDF) Weights() []float64 {
	return append([]float64(nil), p.bins()...)
}
